// Zone maps: per-block min/max summaries. During a filtered slide the
// kernel consults the zone map to skip summary windows that cannot match
// the predicate — the lightest of the paper's indexing options
// (Section 2.6 "Indexing").

#ifndef DBTOUCH_INDEX_ZONE_MAP_H_
#define DBTOUCH_INDEX_ZONE_MAP_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "storage/column.h"
#include "storage/paged_column.h"
#include "storage/types.h"

namespace dbtouch::index {

struct Zone {
  storage::RowId first = 0;  // inclusive
  storage::RowId last = 0;   // inclusive
  double min = 0.0;
  double max = 0.0;
};

class ZoneMap {
 public:
  /// Builds over `column`, one zone per `rows_per_zone` rows (last zone may
  /// be short).
  ZoneMap(storage::ColumnView column, std::int64_t rows_per_zone);

  /// Builds by scanning `source` block-at-a-time (storage::ScanBlocks),
  /// pinning each block once however many zones it spans: the same zones
  /// as the ColumnView constructor, whatever tier the column lives in. A
  /// block that cannot be read is the returned Status.
  static Result<ZoneMap> Build(storage::PagedColumnSource& source,
                               std::int64_t rows_per_zone);

  std::int64_t num_zones() const {
    return static_cast<std::int64_t>(zones_.size());
  }
  const Zone& zone(std::int64_t i) const {
    return zones_[static_cast<std::size_t>(i)];
  }
  std::int64_t rows_per_zone() const { return rows_per_zone_; }

  /// Zone index containing `row`.
  std::int64_t ZoneOf(storage::RowId row) const;

  /// True when the zone containing `row` may hold a value in [lo, hi].
  bool MayMatch(storage::RowId row, double lo, double hi) const;

  /// Rows of all zones overlapping value range [lo, hi] — candidate
  /// regions for an index-assisted exploration.
  std::vector<Zone> MatchingZones(double lo, double hi) const;

  /// Global min/max (for on-screen object annotations).
  double global_min() const { return global_min_; }
  double global_max() const { return global_max_; }

 private:
  /// Empty zones over `rows` rows; Add fills them, Finish sums them up.
  ZoneMap(std::int64_t rows, std::int64_t rows_per_zone);
  /// Folds base rows [first_row, first_row + rows.row_count()) into the
  /// zones they fall in.
  void Add(const storage::ColumnView& rows, storage::RowId first_row);
  void Finish();

  std::int64_t rows_per_zone_;
  std::vector<Zone> zones_;
  double global_min_ = 0.0;
  double global_max_ = 0.0;
};

}  // namespace dbtouch::index

#endif  // DBTOUCH_INDEX_ZONE_MAP_H_
