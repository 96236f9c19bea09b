// Incremental hash group-by. Like the join, grouping in dbTouch cannot
// block on its full input (Section 2.9: "the same is true for hash-based
// grouping"); groups accrete as the user touches tuples, and the current
// group table is inspectable at any instant.
//
// Reads go through PagedColumnCursors regardless of how the operator was
// constructed: a raw ColumnView is wrapped in a zero-copy
// UnpagedColumnSource, a paged source (spilled / cold-tier tables, whose
// matrix may not exist at all) pins pool blocks. One read path, any tier.

#ifndef DBTOUCH_EXEC_GROUPBY_H_
#define DBTOUCH_EXEC_GROUPBY_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "exec/aggregate.h"
#include "storage/column.h"
#include "storage/paged_column.h"
#include "storage/types.h"

namespace dbtouch::exec {

struct GroupResult {
  std::int64_t key = 0;
  std::int64_t count = 0;
  double value = 0.0;
};

class IncrementalGroupBy {
 public:
  /// Groups `values` by the integer (or dictionary-code) `keys` column,
  /// aggregating with `kind`.
  IncrementalGroupBy(storage::ColumnView keys, storage::ColumnView values,
                     AggKind kind);

  /// Paged form: key and value reads pin blocks of the sources. Each
  /// cursor keeps the block under the touch pinned, so a slide inside
  /// one block re-pins nothing.
  IncrementalGroupBy(std::shared_ptr<storage::PagedColumnSource> keys,
                     std::shared_ptr<storage::PagedColumnSource> values,
                     AggKind kind);

  /// Feeds the touched row; revisited rows are no-ops. Returns true when
  /// the row was new and contributed to its group.
  bool Feed(storage::RowId row);

  /// Integer key of `row` (dictionary code for string keys) read through
  /// the operator's own backing — the kernel surfaces the touched
  /// tuple's group without needing its own raw view.
  std::int64_t KeyAt(storage::RowId row);

  /// Groups seen so far, sorted by key.
  std::vector<GroupResult> Snapshot() const;

  std::int64_t num_groups() const {
    return static_cast<std::int64_t>(groups_.size());
  }
  std::int64_t rows_fed() const {
    return static_cast<std::int64_t>(seen_.size());
  }

  /// Drops the working pins — called on gesture pause so an idle session
  /// holds no buffer-pool blocks (free for zero-copy backings).
  void ReleasePins() {
    keys_.ReleasePin();
    values_.ReleasePin();
  }

 private:
  storage::PagedColumnCursor keys_;
  storage::PagedColumnCursor values_;
  AggKind kind_;
  std::unordered_map<std::int64_t, RunningAggregate> groups_;
  std::unordered_set<storage::RowId> seen_;
};

}  // namespace dbtouch::exec

#endif  // DBTOUCH_EXEC_GROUPBY_H_
