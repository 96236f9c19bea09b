// Interactive summaries (paper Section 2.7): "when during a slide we
// register position p which corresponds to tuple identifier idp, then
// dbTouch scans all entries within the tuple identifier range
// [idp-k, idp+k] and calculates a single aggregate value."

#ifndef DBTOUCH_EXEC_SUMMARY_H_
#define DBTOUCH_EXEC_SUMMARY_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "exec/aggregate.h"
#include "storage/column.h"
#include "storage/paged_column.h"
#include "storage/types.h"

namespace dbtouch::exec {

struct SummaryResult {
  storage::RowId center = 0;
  storage::RowId first = 0;   // inclusive
  storage::RowId last = 0;    // inclusive
  std::int64_t rows = 0;      // entries aggregated
  double value = 0.0;
};

class InteractiveSummaryOp {
 public:
  /// `k`: half-width of the summary window. "A good default choice is to
  /// perform an average aggregation" — so kAvg is the default kind.
  /// In-memory form: the op keeps the view, and each window is folded as
  /// one span of it. Constructing it costs nothing (the kernel builds one
  /// per touch a sample level serves).
  InteractiveSummaryOp(storage::ColumnView column, std::int64_t k,
                       AggKind kind = AggKind::kAvg);
  /// Paged form: the window is scanned block-at-a-time through pinned
  /// blocks of `source` (the BufferManager read path) instead of a raw
  /// whole-column pointer, each block folded by the same step as the
  /// in-memory form's one span. Same results bit for bit, whatever the
  /// block size; bounded residency.
  InteractiveSummaryOp(std::shared_ptr<storage::PagedColumnSource> source,
                       std::int64_t k, AggKind kind = AggKind::kAvg);

  /// Summary of the window centred at `center`, clamped to the column.
  SummaryResult ComputeAt(storage::RowId center) const;

  std::int64_t k() const { return k_; }
  AggKind kind() const { return kind_; }

  /// Total entries scanned across all ComputeAt calls (cost accounting
  /// for the benchmarks).
  std::int64_t rows_scanned() const { return rows_scanned_; }

 private:
  /// The in-memory form's column; the paged form reads through cursor_.
  storage::ColumnView view_;
  mutable storage::PagedColumnCursor cursor_;
  std::int64_t k_;
  AggKind kind_;
  mutable std::int64_t rows_scanned_ = 0;
};

}  // namespace dbtouch::exec

#endif  // DBTOUCH_EXEC_SUMMARY_H_
