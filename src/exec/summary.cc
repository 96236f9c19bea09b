#include "exec/summary.h"

#include <algorithm>
#include <limits>

#include "common/macros.h"
#include "exec/span_kernels.h"

namespace dbtouch::exec {

namespace {

/// One window's fold, the single aggregation path of both forms: the
/// in-memory form feeds it the window as one span, the paged form each
/// block's slice of it. min/max/count are order-independent, so they run
/// through the SIMD MinMaxSpan kernel; every other kind is order-dependent
/// (sum/avg/Welford) and runs AggregateSpan's per-kind loop, which does
/// the same ops per row as RunningAggregate's Add for that kind: for sum
/// and avg, one add per row into lane (position mod 8), each lane in
/// ascending row order, the lanes combined in one fixed tree; for
/// variance, sequential Welford. So one span and any block split of it
/// produce bit-identical results; string/strided spans fall back to the
/// per-row loops below.
class WindowFold {
 public:
  explicit WindowFold(AggKind kind)
      : kind_(kind),
        order_independent_(kind == AggKind::kCount ||
                           kind == AggKind::kMin || kind == AggKind::kMax),
        agg_(kind) {}

  void Add(const storage::ColumnView& rows) {
    const std::int64_t count = rows.row_count();
    if (order_independent_) {
      if (MinMaxSpan(rows, &minmax_)) {
        return;
      }
      for (std::int64_t i = 0; i < count; ++i) {
        const double v = rows.GetAsDouble(i);
        ++minmax_.count;
        if (v < minmax_.min) {
          minmax_.min = v;
        }
        if (v > minmax_.max) {
          minmax_.max = v;
        }
      }
      return;
    }
    if (AggregateSpan(rows, &agg_)) {
      return;
    }
    for (std::int64_t i = 0; i < count; ++i) {
      agg_.Add(rows.GetAsDouble(i));
    }
  }

  /// Fills `out`'s row count and value.
  void Finish(SummaryResult* out) const {
    if (!order_independent_) {
      out->rows = agg_.count();
      out->value = agg_.value();
      return;
    }
    out->rows = minmax_.count;
    // Mirrors RunningAggregate::value() for these kinds.
    if (kind_ == AggKind::kCount) {
      out->value = static_cast<double>(minmax_.count);
    } else if (minmax_.count == 0) {
      out->value = std::numeric_limits<double>::quiet_NaN();
    } else {
      out->value = kind_ == AggKind::kMin ? minmax_.min : minmax_.max;
    }
  }

 private:
  AggKind kind_;
  bool order_independent_;
  MinMaxState minmax_;
  RunningAggregate agg_;
};

}  // namespace

InteractiveSummaryOp::InteractiveSummaryOp(storage::ColumnView column,
                                           std::int64_t k, AggKind kind)
    : view_(column), k_(k), kind_(kind) {
  DBTOUCH_CHECK(k >= 0);
}

InteractiveSummaryOp::InteractiveSummaryOp(
    std::shared_ptr<storage::PagedColumnSource> source, std::int64_t k,
    AggKind kind)
    : cursor_(std::move(source)), k_(k), kind_(kind) {
  DBTOUCH_CHECK(k >= 0);
}

SummaryResult InteractiveSummaryOp::ComputeAt(storage::RowId center) const {
  SummaryResult out;
  const std::int64_t n =
      cursor_.valid() ? cursor_.row_count() : view_.row_count();
  if (n == 0) {
    return out;
  }
  out.center = std::clamp<storage::RowId>(center, 0, n - 1);
  // Clamped to the column before the add, so any k >= 0 is safe.
  out.first = out.center - std::min(k_, out.center);
  out.last = out.center + std::min(k_, n - 1 - out.center);
  WindowFold fold(kind_);
  if (cursor_.valid()) {
    cursor_.Scan(out.first, out.last,
                 [&fold](const storage::ColumnView& rows, storage::RowId) {
                   fold.Add(rows);
                 });
  } else {
    fold.Add(view_.Slice(out.first, out.last - out.first + 1));
  }
  fold.Finish(&out);
  rows_scanned_ += out.rows;
  return out;
}

}  // namespace dbtouch::exec
