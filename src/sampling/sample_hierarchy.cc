#include "sampling/sample_hierarchy.h"

#include <algorithm>

#include "common/macros.h"

namespace dbtouch::sampling {

using storage::Column;
using storage::ColumnView;
using storage::RowId;

namespace {

/// Appends rows start, start + 2, start + 4, ... of `rows` to `out`, field
/// bytes copied exactly, in one strided append.
void AppendEverySecond(const ColumnView& rows, RowId start, Column* out) {
  if (start >= rows.row_count()) {
    return;
  }
  out->AppendStrided(rows.data() + static_cast<std::size_t>(start) *
                                       rows.stride(),
                     storage::TypeWidth(rows.type()), 2 * rows.stride(),
                     (rows.row_count() - start + 1) / 2);
}

}  // namespace

SampleHierarchy::SampleHierarchy(storage::DataType type,
                                 std::int64_t base_rows,
                                 const storage::Dictionary* dictionary,
                                 int num_levels)
    : base_rows_(base_rows), dictionary_(dictionary), num_levels_(num_levels) {
  for (int l = 1; l < num_levels_; ++l) {
    levels_.emplace_back("sample", type);
    levels_.back().Reserve(LevelRows(l));
  }
}

Result<SampleHierarchy> SampleHierarchy::Build(
    storage::PagedColumnSource& base, const SampleHierarchyConfig& config) {
  // Count how many levels clear the minimum-row threshold.
  const std::int64_t rows = base.row_count();
  int levels = 1;
  while (levels <= config.max_level &&
         (rows >> levels) >= config.min_level_rows) {
    ++levels;
  }
  SampleHierarchy h(base.type(), rows, base.dictionary(), levels);
  if (levels == 1) {
    return h;
  }
  // Level 1 keeps the even base rows, read block by block; each level
  // above keeps every second row of the one below.
  DBTOUCH_RETURN_IF_ERROR(storage::ScanBlocks(
      base, 0, rows - 1, [&h](const ColumnView& block, RowId first_row) {
        AppendEverySecond(block, first_row % 2, &h.levels_[0]);
      }));
  for (std::size_t l = 1; l < h.levels_.size(); ++l) {
    AppendEverySecond(h.levels_[l - 1].View(), 0, &h.levels_[l]);
  }
  return h;
}

ColumnView SampleHierarchy::LevelView(int level) const {
  DBTOUCH_CHECK(level >= 1 && level < num_levels_);
  const Column& c = levels_[static_cast<std::size_t>(level - 1)];
  return ColumnView(c.type(), c.raw_data(), c.width(), c.row_count(),
                    dictionary_);
}

std::int64_t SampleHierarchy::LevelRows(int level) const {
  DBTOUCH_CHECK(level >= 0 && level < num_levels_);
  // ceil(base / 2^level): row 0 is always sampled.
  const std::int64_t stride = LevelStride(level);
  return (base_rows_ + stride - 1) / stride;
}

RowId SampleHierarchy::ToBaseRow(int level, RowId sample_row) const {
  DBTOUCH_CHECK(level >= 0 && level < num_levels_);
  return sample_row << level;
}

RowId SampleHierarchy::FromBaseRow(int level, RowId base_row) const {
  DBTOUCH_CHECK(level >= 0 && level < num_levels_);
  const RowId clamped =
      std::clamp<RowId>(base_row, 0, std::max<RowId>(base_rows_ - 1, 0));
  return clamped >> level;
}

std::size_t SampleHierarchy::sample_bytes() const {
  std::size_t total = 0;
  for (const Column& level : levels_) {
    total += level.raw_size();
  }
  return total;
}

}  // namespace dbtouch::sampling
