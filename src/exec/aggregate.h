// Running aggregates. In dbTouch an aggregation never sees its whole input
// up front: the user feeds it values one touch at a time, in any order,
// possibly revisiting rows ("a slide gesture ... computes a running
// aggregate and continuously updates this result", Section 2.3). The
// accumulator therefore supports out-of-order and repeated feeding, with
// optional row-dedup so revisits don't skew results.

#ifndef DBTOUCH_EXEC_AGGREGATE_H_
#define DBTOUCH_EXEC_AGGREGATE_H_

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
/// value() reads: every kind counts rows; sum and avg keep one sequential
/// sum (avg = sum / count); min and max compare only; variance and stddev
/// keep the numerically stable Welford mean and M2.
class RunningAggregate {
 public:
  explicit RunningAggregate(AggKind kind) : kind_(kind) {}

  // Add and AddSpan are inline and kept side by side: they are the one
  // canonical per-kind op sequence. The span kernels feed whole blocks
  // through AddSpan, the cursor paths feed rows through Add, and results
  // stay bit-identical across them (and across any block split) because
  // both compile the same double ops in ascending row order.
  void Add(double v) {
    ++count_;
    switch (kind_) {
      case AggKind::kCount:
        break;
      case AggKind::kSum:
      case AggKind::kAvg:
        sum_ += v;
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
  /// members, which would otherwise force a store per row).
  template <typename T>
  void AddSpan(const T* p, std::int64_t n) {
    switch (kind_) {
      case AggKind::kCount:
        break;
      case AggKind::kSum:
      case AggKind::kAvg: {
        double sum = sum_;
        for (std::int64_t i = 0; i < n; ++i) {
          sum += static_cast<double>(p[i]);
        }
        sum_ = sum;
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
  /// Welford update for the `count`-th value (1-based).
  static void WelfordStep(double v, std::int64_t count, double* mean,
                          double* m2) {
    const double delta = v - *mean;
    *mean += delta / static_cast<double>(count);
    *m2 += delta * (v - *mean);
  }

  AggKind kind_;
  std::int64_t count_ = 0;
  double sum_ = 0.0;
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

  /// Reads on through `source` (the same column under another binding);
  /// the accumulated aggregate and dedup set stay.
  void Rebind(std::shared_ptr<storage::PagedColumnSource> source) {
    cursor_.Rebind(std::move(source));
  }

  void Reset();

 private:
  storage::PagedColumnCursor cursor_;
  RunningAggregate agg_;
  std::unordered_set<storage::RowId> seen_;
};

}  // namespace dbtouch::exec

#endif  // DBTOUCH_EXEC_AGGREGATE_H_
