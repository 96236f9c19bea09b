#include "storage/paged_column.h"

#include <algorithm>

#include "common/macros.h"

namespace dbtouch::storage {

std::shared_ptr<PagedColumnSource> Column::PagedSource(
    std::int64_t rows_per_block) const {
  return std::make_shared<UnpagedColumnSource>(View(), rows_per_block);
}

void BlockPin::Release() {
  if (source_ != nullptr) {
    source_->UnpinBlock(block_, share_token_);
    source_ = nullptr;
  }
}

std::int64_t PagedColumnSource::BlockRowCount(std::int64_t block) const {
  const RowId first = BlockFirstRow(block);
  return std::min<std::int64_t>(rows_per_block(), row_count() - first);
}

UnpagedColumnSource::UnpagedColumnSource(ColumnView column,
                                         std::int64_t rows_per_block)
    : column_(column),
      rows_per_block_(rows_per_block > 0
                          ? rows_per_block
                          : std::max<std::int64_t>(column.row_count(), 1)) {}

Result<BlockPin> UnpagedColumnSource::PinBlock(std::int64_t block,
                                               RowId /*row_hint*/) {
  if (block < 0 || block >= num_blocks()) {
    return Status::OutOfRange("block " + std::to_string(block) +
                              " out of range");
  }
  const RowId first = BlockFirstRow(block);
  return BlockPin(this, block, column_.Slice(first, BlockRowCount(block)),
                  first, share_token());
}

Status ScanBlocks(
    PagedColumnSource& source, RowId first, RowId last,
    const std::function<void(const ColumnView& rows, RowId first_row)>& fn) {
  first = std::max<RowId>(first, 0);
  last = std::min<RowId>(last, source.row_count() - 1);
  for (RowId row = first; row <= last;) {
    DBTOUCH_ASSIGN_OR_RETURN(const BlockPin pin,
                             source.PinBlock(source.BlockFor(row), row));
    const RowId begin = row - pin.first_row();
    const std::int64_t count = std::min<std::int64_t>(
        pin.view().row_count() - begin, last - row + 1);
    fn(pin.view().Slice(begin, count), row);
    row += count;
  }
  return Status::OK();
}

const ColumnView& PagedColumnCursor::EnsureSlow(RowId row) {
  auto pin = source_->PinBlock(source_->BlockFor(row), row);
  DBTOUCH_CHECK(pin.ok());
  pin_ = std::move(*pin);
  span_view_ = pin_.view();
  span_first_ = pin_.first_row();
  span_last_ = pin_.last_row();
  return span_view_;
}

Value PagedColumnCursor::GetValue(RowId row) {
  return Ensure(row).GetValue(row - span_first_);
}

void PagedColumnCursor::Scan(
    RowId first, RowId last,
    const std::function<void(const ColumnView& rows, RowId first_row)>& fn) {
  const std::int64_t n = source_->row_count();
  first = std::max<RowId>(first, 0);
  last = std::min<RowId>(last, n - 1);
  for (RowId row = first; row <= last;) {
    const ColumnView& block = Ensure(row);
    const RowId begin = row - span_first_;
    const std::int64_t count =
        std::min<std::int64_t>(block.row_count() - begin, last - row + 1);
    fn(block.Slice(begin, count), row);
    row += count;
  }
}

}  // namespace dbtouch::storage
