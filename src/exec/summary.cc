#include "exec/summary.h"

#include <algorithm>
#include <limits>

#include "common/macros.h"
#include "exec/span_kernels.h"

namespace dbtouch::exec {

InteractiveSummaryOp::InteractiveSummaryOp(storage::ColumnView column,
                                           std::int64_t k, AggKind kind)
    : cursor_(column), k_(k), kind_(kind) {
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
  const std::int64_t n = cursor_.row_count();
  if (n == 0) {
    return out;
  }
  out.center = std::clamp<storage::RowId>(center, 0, n - 1);
  // Clamped to the column before the add, so any k >= 0 is safe.
  out.first = out.center - std::min(k_, out.center);
  out.last = out.center + std::min(k_, n - 1 - out.center);
  // Block-at-a-time over the window, span-vectorized where the block is a
  // contiguous numeric span. min/max/count are order-independent, so they
  // run through the SIMD MinMaxSpan kernel; every other kind is
  // order-dependent (sum/avg/Welford) and runs AggregateSpan's per-kind
  // loop, which does the same ops per row as RunningAggregate's Add for
  // that kind: for sum and avg, one add per row into lane (position mod
  // 8), each lane in ascending row order, the lanes combined in one
  // fixed tree; for variance, sequential Welford. The paged, unpaged,
  // and vectorized paths, under any block split, all produce
  // bit-identical results; string/strided blocks fall back to the
  // per-row loop below.
  if (kind_ == AggKind::kCount || kind_ == AggKind::kMin ||
      kind_ == AggKind::kMax) {
    MinMaxState state;
    cursor_.Scan(out.first, out.last,
                 [&state](const storage::ColumnView& rows, storage::RowId) {
                   if (MinMaxSpan(rows, &state)) {
                     return;
                   }
                   const std::int64_t count = rows.row_count();
                   for (std::int64_t i = 0; i < count; ++i) {
                     const double v = rows.GetAsDouble(i);
                     ++state.count;
                     if (v < state.min) {
                       state.min = v;
                     }
                     if (v > state.max) {
                       state.max = v;
                     }
                   }
                 });
    out.rows = state.count;
    // Mirrors RunningAggregate::value() for these kinds.
    if (kind_ == AggKind::kCount) {
      out.value = static_cast<double>(state.count);
    } else if (state.count == 0) {
      out.value = std::numeric_limits<double>::quiet_NaN();
    } else {
      out.value = kind_ == AggKind::kMin ? state.min : state.max;
    }
  } else {
    RunningAggregate agg(kind_);
    cursor_.Scan(out.first, out.last,
                 [&agg](const storage::ColumnView& rows, storage::RowId) {
                   if (AggregateSpan(rows, &agg)) {
                     return;
                   }
                   const std::int64_t count = rows.row_count();
                   for (std::int64_t i = 0; i < count; ++i) {
                     agg.Add(rows.GetAsDouble(i));
                   }
                 });
    out.rows = agg.count();
    out.value = agg.value();
  }
  rows_scanned_ += out.rows;
  return out;
}

}  // namespace dbtouch::exec
