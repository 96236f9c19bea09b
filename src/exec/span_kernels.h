// Block-at-a-time kernels over contiguous typed spans (MonetDB/X100-style
// vectorized execution; ROADMAP item 3).
//
// Every kernel here is an accelerated replay of an existing per-row path
// and must stay BIT-IDENTICAL to it — the tier-parity battery compares
// gesture answers across scalar-cursor and span-vectorized backends with
// exact double bit patterns. Two disciplines make that possible:
//
//   1. Order-independent ops (min/max/count, predicate compares) may use
//      SIMD freely: min/max are computed in the column's NATIVE domain and
//      converted once at the end. Since every native->double conversion we
//      use is monotone, conv(min(S)) == min over converted values, bit for
//      bit. Predicate compares happen in the double domain with the exact
//      conversions GetAsDouble performs, so the pass set is identical.
//   2. Order-dependent ops (sum/avg and Welford variance) keep one fixed
//      op sequence: AggregateSpan runs RunningAggregate::AddSpan, one
//      tight loop per kind and type that performs exactly the ops the
//      inlined per-row RunningAggregate::Add performs for that kind
//      (count only; for sum and avg, the row at position p added to lane
//      p mod 8, each lane in ascending row order, and the lanes combined
//      at value() in the fixed tree ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)),
//      avg dividing that by the count; compares only for min and max;
//      sequential Welford mean and M2 for variance and stddev), with no
//      reassociation. Any block split therefore gives the same bits. The
//      win is hoisting the residency check and the type and kind
//      switches out of the row loop, keeping only the state the kind
//      reads, and running the sum's 8 lanes as independent chains (a
//      kAvg band costs one add per row, 8 in flight).
//
// String/dictionary columns and strided (row-major) views are NOT handled:
// every kernel returns false for them and the caller falls back to the
// per-row cursor path. Same at ragged block edges — the callers pass
// whatever slice the scan hands them; a slice of a contiguous block is
// still contiguous, so only genuinely non-span layouts fall back.

#ifndef DBTOUCH_EXEC_SPAN_KERNELS_H_
#define DBTOUCH_EXEC_SPAN_KERNELS_H_

#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "exec/aggregate.h"
#include "exec/predicate.h"
#include "storage/column.h"
#include "storage/types.h"

namespace dbtouch::exec {

/// Instruction-set tier the span kernels dispatch to at runtime.
enum class SimdLevel : std::uint8_t {
  kScalar = 0,
  kAvx2 = 1,
};

std::string_view SimdLevelName(SimdLevel level);

/// The tier kernels will use: hardware-detected AVX2 where available,
/// overridable with DBTOUCH_SIMD=scalar|avx2 in the environment (requests
/// above hardware support clamp down to scalar).
SimdLevel ActiveSimdLevel();

/// Forces the dispatch tier for parity tests. kAvx2 is clamped to
/// hardware support; pass ActiveSimdLevel()'s original value to restore.
void SetSimdLevelForTest(SimdLevel level);

/// Streaming min/max/count accumulator state, in the double domain
/// RunningAggregate uses. Feed spans with MinMaxSpan; the fields follow
/// RunningAggregate's conventions (count counts every value fed, min/max
/// skip NaNs the way `if (v < min_)` does).
struct MinMaxState {
  std::int64_t count = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

/// Accumulates `view`'s values into `acc` exactly as feeding
/// GetAsDouble(row) for every row through RunningAggregate would update
/// (count_, min_, max_). Returns false — with `acc` untouched — when the
/// view is not a contiguous numeric span (caller falls back to the
/// cursor path). One caveat: when a double span mixes -0.0 and +0.0 as
/// its extreme value, which zero's bit pattern survives depends on lane
/// partitioning (they compare equal, so `if (v < min_)` never replaces
/// one with the other); the numeric value is identical either way.
bool MinMaxSpan(const storage::ColumnView& view, MinMaxState* acc);

/// Feeds every value of `view` (ascending row order) into `agg` with the
/// kind switch hoisted out of the row loop (RunningAggregate::AddSpan):
/// the same per-kind ops as per-row Add (the lane-split sum included), so
/// the result is bit-identical to feeding the rows one by one, and to
/// feeding the view split into any pieces, for every AggKind including
/// the order-dependent sum/avg/variance. Returns false — `agg` untouched
/// — for non-contiguous/string views.
bool AggregateSpan(const storage::ColumnView& view, RunningAggregate* agg);

/// Filters `view` against `predicate` with the exact double-domain
/// comparison Predicate::Matches performs: appends base row ids
/// `first_row + i` for every matching value i to `out_rows` (null =
/// count only) and adds the match count to `*rows_passed`. Returns false
/// — outputs untouched — for non-contiguous/string views.
bool FilterSpan(const storage::ColumnView& view, const Predicate& predicate,
                storage::RowId first_row,
                std::vector<storage::RowId>* out_rows,
                std::int64_t* rows_passed);

/// Refines an existing selection: appends to `out_rows` every view-local
/// row index in `in_rows` whose value matches. `out_rows` must not alias
/// `in_rows`. Returns false — `out_rows` untouched — for
/// non-contiguous/string views.
bool FilterSelected(const storage::ColumnView& view,
                    const Predicate& predicate,
                    const std::vector<storage::RowId>& in_rows,
                    std::vector<storage::RowId>* out_rows);

}  // namespace dbtouch::exec

#endif  // DBTOUCH_EXEC_SPAN_KERNELS_H_
