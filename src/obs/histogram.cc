#include "obs/histogram.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "obs/json.h"

namespace dbtouch::obs {

std::size_t Histogram::BucketIndex(std::int64_t value) {
  if (value < 0) {
    value = 0;
  }
  if (value < kSubBuckets) {
    return static_cast<std::size_t>(value);
  }
  const int octave =
      std::bit_width(static_cast<std::uint64_t>(value)) - 1;
  if (octave >= kMaxOctave) {
    return static_cast<std::size_t>(kNumBuckets - 1);
  }
  const std::int64_t sub =
      (value >> (octave - kPrecisionBits)) - kSubBuckets;
  return static_cast<std::size_t>(
      kSubBuckets + (octave - kPrecisionBits) * kSubBuckets + sub);
}

std::int64_t Histogram::BucketLowerBound(std::size_t index) {
  const auto i = static_cast<std::int64_t>(index);
  if (i < kSubBuckets) {
    return i;
  }
  const std::int64_t band = (i - kSubBuckets) / kSubBuckets;
  const std::int64_t sub = (i - kSubBuckets) % kSubBuckets;
  return (kSubBuckets + sub) << band;
}

Histogram::Histogram()
    : buckets_(std::make_unique<Bank>()),
      min_(std::numeric_limits<std::int64_t>::max()) {}

namespace {

/// The one writer's increment: a plain load and store, no locked
/// read-modify-write.
void Bump(std::atomic<std::int64_t>& slot, std::int64_t by) {
  slot.store(slot.load(std::memory_order_relaxed) + by,
             std::memory_order_relaxed);
}

}  // namespace

void Histogram::Record(std::int64_t value) {
  if (value < 0) {
    value = 0;
  }
  Bump((*buckets_)[BucketIndex(value)], 1);
  Bump(sum_, value);
  if (value > max_.load(std::memory_order_relaxed)) {
    max_.store(value, std::memory_order_relaxed);
  }
  if (value < min_.load(std::memory_order_relaxed)) {
    min_.store(value, std::memory_order_relaxed);
  }
  // Last, so a snapshot that loads this count sees everything above.
  count_.store(count_.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.count = count_.load(std::memory_order_acquire);
  snapshot.buckets.resize(kNumBuckets);
  for (std::size_t b = 0; b < kNumBuckets; ++b) {
    snapshot.buckets[b] = (*buckets_)[b].load(std::memory_order_relaxed);
  }
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  snapshot.max = max_.load(std::memory_order_relaxed);
  const std::int64_t min = min_.load(std::memory_order_relaxed);
  snapshot.min =
      snapshot.count == 0 || min == std::numeric_limits<std::int64_t>::max()
          ? 0
          : min;
  if (snapshot.count == 0) {
    snapshot.max = 0;
  }
  return snapshot;
}

void Histogram::Reset() {
  for (auto& c : *buckets_) {
    c.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<std::int64_t>::max(),
             std::memory_order_relaxed);
}

void HistogramSnapshot::Add(const HistogramSnapshot& other) {
  if (buckets.size() < other.buckets.size()) {
    buckets.resize(other.buckets.size(), 0);
  }
  for (std::size_t b = 0; b < other.buckets.size(); ++b) {
    buckets[b] += other.buckets[b];
  }
  if (other.count > 0) {
    min = count == 0 ? other.min : std::min(min, other.min);
    max = count == 0 ? other.max : std::max(max, other.max);
  }
  count += other.count;
  sum += other.sum;
}

std::int64_t HistogramSnapshot::Percentile(double p) const {
  if (count <= 0) {
    return 0;
  }
  p = std::clamp(p, 0.0, 1.0);
  if (p >= 1.0) {
    return max;  // Exact: the extremes are tracked outside the buckets.
  }
  // Same rank convention as server::LatencyPercentile over raw samples:
  // the value at 0-based index p*(count-1) of the sorted sample list.
  const auto rank =
      static_cast<std::int64_t>(p * static_cast<double>(count - 1));
  std::int64_t seen = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen > rank) {
      // Report the bucket's lower bound, clamped into the tracked range
      // so quantisation never reports below the true min or above max.
      return std::clamp(Histogram::BucketLowerBound(b), min, max);
    }
  }
  return max;
}

void HistogramSnapshot::AppendJson(JsonWriter& writer,
                                   bool include_buckets) const {
  writer.BeginObject();
  writer.Field("count", count);
  writer.Field("sum", sum);
  writer.Field("min", min);
  writer.Field("max", max);
  writer.Field("mean", Mean());
  writer.Field("p50", Percentile(0.50));
  writer.Field("p95", Percentile(0.95));
  writer.Field("p99", Percentile(0.99));
  if (include_buckets) {
    writer.Key("buckets");
    writer.BeginArray();
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      if (buckets[b] == 0) {
        continue;  // Sparse: most of the 1k+ buckets are empty.
      }
      writer.BeginArray();
      writer.Int(Histogram::BucketLowerBound(b));
      writer.Int(buckets[b]);
      writer.EndArray();
    }
    writer.EndArray();
  }
  writer.EndObject();
}

}  // namespace dbtouch::obs
