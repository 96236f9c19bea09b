// obs::Histogram — fixed log-spaced latency histogram for the hot path.
//
// The server used to keep a reservoir of raw latency samples; that capped
// how much history a long-lived server could represent and made percentiles
// reflect whichever samples survived the reservoir. A histogram has neither
// problem: every recorded value lands in a bucket, memory is fixed, and
// percentiles are exact at bucket resolution no matter how long the server
// runs.
//
// Bucket layout (HdrHistogram-style, microsecond values):
//   - values in [0, 2^kPrecisionBits) get one bucket each (exact);
//   - above that, each power-of-two octave is subdivided into
//     2^kPrecisionBits log-spaced buckets, so the relative quantisation
//     error is bounded by 2^-kPrecisionBits (~3.1% at 5 bits) at any
//     magnitude up to kMaxTrackableUs (values beyond clamp into the last
//     bucket).
//
// Concurrency: one writer. A histogram has one counter bank, and Record
// is a relaxed load and store per counter (bucket, sum, extremes, count)
// with no read-modify-write instruction, so only one thread may record
// into a given histogram at a time. Snapshot may run on any thread, any
// time. A distribution with several writers (the server's workers, a
// replay's sender threads) keeps one histogram per writer and adds their
// snapshots with HistogramSnapshot::Add. Snapshots are plain structs safe
// to copy around and serialise.

#ifndef DBTOUCH_OBS_HISTOGRAM_H_
#define DBTOUCH_OBS_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace dbtouch::obs {

class JsonWriter;

/// Coherent copy of a Histogram: plain counters, percentile math, JSON.
struct HistogramSnapshot {
  std::int64_t count = 0;
  std::int64_t sum = 0;
  /// Exact extremes (tracked outside the buckets, so p100 is not
  /// quantised).
  std::int64_t min = 0;
  std::int64_t max = 0;
  /// Dense bucket counts, index per Histogram::BucketIndex.
  std::vector<std::int64_t> buckets;

  /// Exact-bucket percentile: the lower bound of the bucket holding the
  /// p-th ranked value (p in [0, 1]). 0 when empty. p=1 returns the exact
  /// tracked max.
  std::int64_t Percentile(double p) const;

  /// Adds `other`'s recordings into this snapshot: counts, sums and
  /// buckets add, and the extremes are those of the non-empty sides (an
  /// empty snapshot's zero min and max take no part).
  void Add(const HistogramSnapshot& other);

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// {"count":N,"sum":S,"min":m,"max":M,"mean":x,"p50":...,"p95":...,
  ///  "p99":...} plus, when `include_buckets`, a compact sparse
  ///  "buckets":[[lower_bound,count],...] array.
  void AppendJson(JsonWriter& writer, bool include_buckets = false) const;
};

class Histogram {
 public:
  /// Sub-bucket precision: relative error <= 2^-kPrecisionBits.
  static constexpr int kPrecisionBits = 5;
  static constexpr std::int64_t kSubBuckets = 1ll << kPrecisionBits;
  /// Largest distinguishable value (~1.1e12 us ≈ 13 days); larger values
  /// clamp into the final bucket.
  static constexpr int kMaxOctave = 40;
  static constexpr std::int64_t kNumBuckets =
      kSubBuckets + (kMaxOctave - kPrecisionBits) * kSubBuckets;

  Histogram();

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Single writer (see the header comment); negative values clamp to 0.
  void Record(std::int64_t value);

  /// Any thread, any time. A snapshot that counts a recording also holds
  /// that recording's bucket, sum and extremes.
  HistogramSnapshot Snapshot() const;

  /// Discards all counts. Call it only while no thread records (tests,
  /// between bench regimes).
  void Reset();

  /// Bucket index for `value` (>= 0).
  static std::size_t BucketIndex(std::int64_t value);
  /// Smallest value mapping to bucket `index`.
  static std::int64_t BucketLowerBound(std::size_t index);

 private:
  using Bank = std::array<std::atomic<std::int64_t>, kNumBuckets>;

  /// The bucket counts, zeroed at construction.
  std::unique_ptr<Bank> buckets_;
  /// Stored last by Record, with release; Snapshot loads it first, with
  /// acquire.
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_{0};
  std::atomic<std::int64_t> max_{0};
};

}  // namespace dbtouch::obs

#endif  // DBTOUCH_OBS_HISTOGRAM_H_
