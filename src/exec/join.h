// Non-blocking join (paper Section 2.9 "Joins"): "we cannot use a
// hash-join as we do not know which data we should use to build the hash
// table ... exploiting non blocking options is a necessary path in
// dbTouch."
//
// SymmetricHashJoin keeps a hash table per side; every tuple the user
// touches is inserted into its side's table and immediately probes the
// other side, so matches surface the moment both partners have been
// touched — no build phase, no blocking.

#ifndef DBTOUCH_EXEC_JOIN_H_
#define DBTOUCH_EXEC_JOIN_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "storage/column.h"
#include "storage/paged_column.h"
#include "storage/types.h"

namespace dbtouch::exec {

enum class JoinSide : std::uint8_t { kLeft = 0, kRight = 1 };

struct JoinMatch {
  storage::RowId left_row = 0;
  storage::RowId right_row = 0;
  std::int64_t key = 0;

  friend bool operator==(const JoinMatch&, const JoinMatch&) = default;
};

class SymmetricHashJoin {
 public:
  /// Joins on integer keys (int32/int64/dictionary codes); `left` and
  /// `right` are the key columns (wrapped in zero-copy cursors).
  SymmetricHashJoin(storage::ColumnView left, storage::ColumnView right);

  /// Paged form: key reads pin blocks of the sources — the buffer-pool
  /// read path, and the only one that works once a side's table has been
  /// spilled and its matrix reclaimed. Both forms read through the same
  /// cursors; only where the bytes live differs.
  SymmetricHashJoin(std::shared_ptr<storage::PagedColumnSource> left,
                    std::shared_ptr<storage::PagedColumnSource> right);

  /// Feeds the tuple the user just touched on `side`. Re-fed rows are
  /// no-ops (a slide may revisit data; each pair matches exactly once).
  /// Returns the new matches this tuple produced.
  std::vector<JoinMatch> Feed(JoinSide side, storage::RowId row);

  /// All matches produced so far, in production order.
  const std::vector<JoinMatch>& matches() const { return matches_; }

  std::int64_t left_fed() const { return fed_count_[0]; }
  std::int64_t right_fed() const { return fed_count_[1]; }

  /// Memory-ish cost proxy: entries resident across both hash tables.
  std::int64_t hash_entries() const;

  /// Drops the working pins — gesture-pause hygiene: an idle session
  /// must not hold buffer-pool blocks pinned (free for zero-copy sides).
  void ReleasePins() {
    cursors_[0].ReleasePin();
    cursors_[1].ReleasePin();
  }

 private:
  std::int64_t KeyAt(JoinSide side, storage::RowId row);

  storage::PagedColumnCursor cursors_[2];
  /// key -> rows with that key, per side.
  std::unordered_map<std::int64_t, std::vector<storage::RowId>> tables_[2];
  std::unordered_set<storage::RowId> fed_[2];
  std::int64_t fed_count_[2] = {0, 0};
  std::vector<JoinMatch> matches_;
};

}  // namespace dbtouch::exec

#endif  // DBTOUCH_EXEC_JOIN_H_
