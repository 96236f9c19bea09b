// Running aggregates. In dbTouch an aggregation never sees its whole input
// up front: the user feeds it values one touch at a time, in any order,
// possibly revisiting rows ("a slide gesture ... computes a running
// aggregate and continuously updates this result", Section 2.3). The
// accumulator therefore supports out-of-order and repeated feeding, with
// optional row-dedup so revisits don't skew results.

#ifndef DBTOUCH_EXEC_AGGREGATE_H_
#define DBTOUCH_EXEC_AGGREGATE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "storage/column.h"
#include "storage/paged_column.h"
#include "storage/types.h"

namespace dbtouch::exec {

enum class AggKind : std::uint8_t {
  kCount = 0,
  kSum = 1,
  kAvg = 2,
  kMin = 3,
  kMax = 4,
  kVariance = 5,
  kStdDev = 6,
};

std::string_view AggKindName(AggKind kind);

/// Streaming accumulator that keeps, per row, only the state its kind's
/// value() reads: every kind counts rows; sum and avg keep kLanes partial
/// sums (avg = sum / count); min and max compare only; variance and
/// stddev keep the numerically stable Welford mean and M2.
///
/// The sum is lane-split. The row at position p (counted from the
/// aggregate's first row) is added to lane p mod kLanes, each lane in
/// ascending row order, and value() combines the lanes in one fixed tree,
/// ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7)). Each lane is an
/// independent chain of adds, so a span's sum runs kLanes chains side by
/// side instead of one dependent chain, and nothing is reassociated: the
/// result depends only on the rows and their order, never on how they
/// were split into calls. Its error bound is no worse than a sequential
/// sum's.
class RunningAggregate {
 public:
  /// Partial sums kept for kSum and kAvg.
  static constexpr std::size_t kLanes = 8;

  explicit RunningAggregate(AggKind kind) : kind_(kind) {}

  // Add and AddSpan are inline and kept side by side: they are the one
  // canonical per-kind op sequence. The span kernels feed whole blocks
  // through AddSpan, the cursor paths feed rows through Add, and results
  // stay bit-identical across them (and across any block split) because
  // both compile the same double ops per lane in ascending row order.
  void Add(double v) {
    const std::int64_t position = count_++;
    switch (kind_) {
      case AggKind::kCount:
        break;
      case AggKind::kSum:
      case AggKind::kAvg:
        lanes_[Lane(position)] += v;
        break;
      case AggKind::kMin:
        if (v < min_) {
          min_ = v;
        }
        break;
      case AggKind::kMax:
        if (v > max_) {
          max_ = v;
        }
        break;
      case AggKind::kVariance:
      case AggKind::kStdDev:
        WelfordStep(v, count_, &mean_, &m2_);
        break;
    }
  }

  /// Adds p[0], ..., p[n - 1] converted to double: the same ops as n
  /// calls to Add in that order, with the kind switch hoisted out of the
  /// row loop and the state held in locals (a double span may alias the
  /// members, which would otherwise force a store per row). The sum runs
  /// a scalar prologue up to the next multiple of kLanes, a kLanes-wide
  /// main loop and a scalar epilogue; every lane still receives its rows
  /// in ascending order.
  template <typename T>
  void AddSpan(const T* p, std::int64_t n) {
    switch (kind_) {
      case AggKind::kCount:
        break;
      case AggKind::kSum:
      case AggKind::kAvg: {
        double lanes[kLanes];
        for (std::size_t j = 0; j < kLanes; ++j) {
          lanes[j] = lanes_[j];
        }
        std::int64_t i = 0;
        for (std::size_t lane = Lane(count_); lane != 0 && i < n; ++i) {
          lanes[lane] += static_cast<double>(p[i]);
          lane = (lane + 1) % kLanes;
        }
        constexpr auto kStep = static_cast<std::int64_t>(kLanes);
        for (; i + kStep <= n; i += kStep) {
          const T* row = p + i;
#pragma GCC unroll 8
          for (std::size_t j = 0; j < kLanes; ++j) {
            lanes[j] += static_cast<double>(row[j]);
          }
        }
        for (std::size_t j = 0; i < n; ++i, ++j) {
          lanes[j] += static_cast<double>(p[i]);
        }
        for (std::size_t j = 0; j < kLanes; ++j) {
          lanes_[j] = lanes[j];
        }
        break;
      }
      case AggKind::kMin: {
        double min = min_;
        for (std::int64_t i = 0; i < n; ++i) {
          const double v = static_cast<double>(p[i]);
          if (v < min) {
            min = v;
          }
        }
        min_ = min;
        break;
      }
      case AggKind::kMax: {
        double max = max_;
        for (std::int64_t i = 0; i < n; ++i) {
          const double v = static_cast<double>(p[i]);
          if (v > max) {
            max = v;
          }
        }
        max_ = max;
        break;
      }
      case AggKind::kVariance:
      case AggKind::kStdDev: {
        const std::int64_t seen = count_;
        double mean = mean_;
        double m2 = m2_;
        for (std::int64_t i = 0; i < n; ++i) {
          WelfordStep(static_cast<double>(p[i]), seen + i + 1, &mean, &m2);
        }
        mean_ = mean;
        m2_ = m2;
        break;
      }
    }
    count_ += n;
  }

  /// Current aggregate value; NaN when empty (except count, which is 0).
  double value() const;

  std::int64_t count() const { return count_; }
  AggKind kind() const { return kind_; }

  void Reset();

 private:
  /// The lane that the row at `position` (0-based) is added to.
  static std::size_t Lane(std::int64_t position) {
    return static_cast<std::size_t>(position) % kLanes;
  }

  /// The lanes combined in the fixed tree documented above.
  double LaneSum() const;

  /// Welford update for the `count`-th value (1-based).
  static void WelfordStep(double v, std::int64_t count, double* mean,
                          double* m2) {
    const double delta = v - *mean;
    *mean += delta / static_cast<double>(count);
    *m2 += delta * (v - *mean);
  }

  AggKind kind_;
  std::int64_t count_ = 0;
  double lanes_[kLanes] = {};
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// A running aggregate fed by touched rows of one column. Deduplicates
/// rows (a back-and-forth slide revisits data; the aggregate must not
/// count it twice), tracking coverage for progress reporting.
class TouchedAggregateOp {
 public:
  /// Reads go through a paged cursor either way: the ColumnView form wraps
  /// an unpaged (zero-copy) source; the source form lets the kernel feed
  /// the op through the shared BufferManager's block cache.
  TouchedAggregateOp(storage::ColumnView column, AggKind kind)
      : cursor_(column), agg_(kind) {}
  TouchedAggregateOp(std::shared_ptr<storage::PagedColumnSource> source,
                     AggKind kind)
      : cursor_(std::move(source)), agg_(kind) {}

  /// Feeds row `row` if within range and unseen. Returns true when the row
  /// contributed (i.e. it was new).
  bool Feed(storage::RowId row);

  /// Feeds every in-range, unseen row of [first, last] in ascending order:
  /// the same contributions per-row Feed would make, but reading whole
  /// pinned block slices instead of re-probing the cursor per row (the
  /// dedup set is still consulted per row — revisits must not count
  /// twice). Returns how many rows contributed.
  std::int64_t FeedRange(storage::RowId first, storage::RowId last);

  double value() const { return agg_.value(); }
  std::int64_t rows_seen() const { return agg_.count(); }

  /// Fraction of the column's rows fed so far, in [0, 1].
  double coverage() const;

  /// Drops the cursor's working pin (gesture ended — an idle op must not
  /// hold buffer-pool blocks pinned). No-op for unpaged sources.
  void ReleasePin() { cursor_.ReleasePin(); }

  void Reset();

 private:
  storage::PagedColumnCursor cursor_;
  RunningAggregate agg_;
  std::unordered_set<storage::RowId> seen_;
};

}  // namespace dbtouch::exec

#endif  // DBTOUCH_EXEC_AGGREGATE_H_
