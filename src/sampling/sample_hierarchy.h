// SampleHierarchy: "store separately various different samples of the base
// data and depending on the object size and gesture speed feed from the
// proper copy, minimizing the auxiliary data reads" (paper Section 2.6,
// citing Sciborg's hierarchies of samples).
//
// Level 0 is the base data, which the hierarchy does not hold. Level
// l >= 1 is a dense copy of every 2^l-th tuple, so sample row s at level l
// is base row s << l. The power-of-two strides make levels nested: every
// tuple present at level l is also present at all levels below it.
//
// A hierarchy is immutable. Build reads the base once, block-at-a-time,
// and copies every level then; afterwards the hierarchy holds only its
// copies and the base's type, row count and dictionary. So nothing that
// later happens to the base (a spill reclaiming its matrix, a layout
// rotation swapping it) concerns it, and any number of sessions read it
// without locks. Base-fidelity reads go through the pool source the
// kernel binds to the column.

#ifndef DBTOUCH_SAMPLING_SAMPLE_HIERARCHY_H_
#define DBTOUCH_SAMPLING_SAMPLE_HIERARCHY_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "storage/column.h"
#include "storage/paged_column.h"
#include "storage/types.h"

namespace dbtouch::sampling {

struct SampleHierarchyConfig {
  /// Highest level built (stride 2^max_level).
  int max_level = 16;
  /// Levels whose sample would fall below this row count are not built;
  /// tiny samples cost more in bookkeeping than they save in reads.
  std::int64_t min_level_rows = 256;
};

class SampleHierarchy {
 public:
  /// Reads `base` once, block-at-a-time (storage::ScanBlocks), and builds
  /// every level. A block that cannot be read is the returned Status. The
  /// base's dictionary must outlive the hierarchy (its owner pins the
  /// table).
  static Result<SampleHierarchy> Build(
      storage::PagedColumnSource& base,
      const SampleHierarchyConfig& config = {});

  /// Number of addressable levels, level 0 (the base) included.
  int num_levels() const { return num_levels_; }

  /// The sample copy at `level`, 1 <= level < num_levels(), with the base
  /// dictionary attached so string samples decode.
  storage::ColumnView LevelView(int level) const;

  /// Rows at `level` (level 0: the base's row count).
  std::int64_t LevelRows(int level) const;

  /// Stride in base rows between consecutive sample rows at `level`.
  std::int64_t LevelStride(int level) const { return std::int64_t{1} << level; }

  /// Base row backing sample row `sample_row` of `level`.
  storage::RowId ToBaseRow(int level, storage::RowId sample_row) const;

  /// Sample row at `level` nearest to (at or before) `base_row`.
  storage::RowId FromBaseRow(int level, storage::RowId base_row) const;

  /// Bytes held by the sample copies.
  std::size_t sample_bytes() const;

 private:
  SampleHierarchy(storage::DataType type, std::int64_t base_rows,
                  const storage::Dictionary* dictionary, int num_levels);

  std::int64_t base_rows_;
  const storage::Dictionary* dictionary_;
  int num_levels_;
  /// levels_[l-1] holds level l.
  std::vector<storage::Column> levels_;
};

}  // namespace dbtouch::sampling

#endif  // DBTOUCH_SAMPLING_SAMPLE_HIERARCHY_H_
