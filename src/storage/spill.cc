#include "storage/spill.h"

#include <cstring>
#include <utility>

#include "cache/block_provider.h"
#include "common/macros.h"
#include "storage/pax.h"

namespace dbtouch::storage {

TableSpiller::TableSpiller(std::string dir, SpillOptions options)
    : dir_(std::move(dir)), options_(options) {
  DBTOUCH_CHECK(options_.rows_per_block > 0);
}

std::string TableSpiller::PathFor(const std::string& table,
                                  std::size_t column) const {
  return dir_ + "/" + table + "." + std::to_string(column) + ".dbb";
}

std::string TableSpiller::PaxPathFor(const std::string& table) const {
  return dir_ + "/" + table + ".pax.dbb";
}

Result<std::shared_ptr<cache::FileBlockProvider>> TableSpiller::SpillColumn(
    const std::shared_ptr<const Table>& table, std::size_t column) {
  if (table == nullptr) {
    return Status::InvalidArgument("null table");
  }
  if (column >= table->schema().num_fields()) {
    return Status::OutOfRange("column " + std::to_string(column) +
                              " out of range for table '" + table->name() +
                              "'");
  }
  // The table provider already knows how to densify one block out of
  // either layout; the spill is its blocks streamed to disk in order.
  cache::TableBlockProvider reader(table, column, options_.rows_per_block);
  const std::string path = PathFor(table->name(), column);
  cache::BlockFileWriterOptions writer_options;
  writer_options.aligned_extents = options_.aligned_extents;
  writer_options.use_direct = options_.use_direct;
  cache::BlockFileWriter writer(path, reader.geometry(), writer_options);
  for (std::int64_t block = 0; block < reader.geometry().num_blocks();
       ++block) {
    DBTOUCH_ASSIGN_OR_RETURN(const std::vector<std::byte> payload,
                             reader.Fetch(block));
    DBTOUCH_RETURN_IF_ERROR(writer.Append(payload.data(), payload.size()));
  }
  DBTOUCH_RETURN_IF_ERROR(writer.Finish());

  DBTOUCH_ASSIGN_OR_RETURN(
      std::shared_ptr<cache::FileBlockProvider> provider,
      cache::FileBlockProvider::Open(
          path, cache::FileProviderOptions{.use_direct = options_.use_direct},
          table->dictionary(column)));
  ++columns_spilled_;
  bytes_written_ += writer.bytes_written();
  return provider;
}

Result<std::shared_ptr<cache::FileBlockProvider>>
TableSpiller::SpillTablePax(const std::shared_ptr<const Table>& table) {
  if (table == nullptr) {
    return Status::InvalidArgument("null table");
  }
  const std::size_t num_columns = table->schema().num_fields();
  if (num_columns == 0) {
    return Status::InvalidArgument("table '" + table->name() +
                                   "' has no columns");
  }
  std::vector<DataType> types;
  types.reserve(num_columns);
  for (std::size_t c = 0; c < num_columns; ++c) {
    types.push_back(table->schema().field(c).type);
  }
  const PaxLayout layout(types);

  // One per-column streaming reader; each PAX block is the columns'
  // same-index blocks scattered into their minipage slots. Still O(block)
  // memory: only one block of each column is live at a time.
  std::vector<std::unique_ptr<cache::TableBlockProvider>> readers;
  readers.reserve(num_columns);
  for (std::size_t c = 0; c < num_columns; ++c) {
    readers.push_back(std::make_unique<cache::TableBlockProvider>(
        table, c, options_.rows_per_block));
  }

  cache::BlockGeometry geometry;
  geometry.type = types[0];
  geometry.row_count = readers[0]->geometry().row_count;
  geometry.rows_per_block = options_.rows_per_block;
  geometry.row_bytes = layout.row_bytes();

  const std::string path = PaxPathFor(table->name());
  cache::BlockFileWriterOptions writer_options;
  writer_options.aligned_extents = options_.aligned_extents;
  writer_options.use_direct = options_.use_direct;
  writer_options.pax_columns = types;
  cache::BlockFileWriter writer(path, geometry, writer_options);
  std::vector<std::byte> block_payload;
  for (std::int64_t block = 0; block < geometry.num_blocks(); ++block) {
    const std::int64_t rows = geometry.BlockRowCount(block);
    block_payload.assign(layout.BlockBytes(rows), std::byte{0});
    for (std::size_t c = 0; c < num_columns; ++c) {
      DBTOUCH_ASSIGN_OR_RETURN(const std::vector<std::byte> minipage,
                               readers[c]->Fetch(block));
      DBTOUCH_CHECK(minipage.size() == layout.MinipageBytes(rows, c));
      std::memcpy(block_payload.data() + layout.MinipageOffset(rows, c),
                  minipage.data(), minipage.size());
    }
    DBTOUCH_RETURN_IF_ERROR(
        writer.Append(block_payload.data(), block_payload.size()));
  }
  DBTOUCH_RETURN_IF_ERROR(writer.Finish());

  std::vector<std::shared_ptr<Dictionary>> dictionaries;
  dictionaries.reserve(num_columns);
  for (std::size_t c = 0; c < num_columns; ++c) {
    dictionaries.push_back(table->dictionary(c));
  }
  DBTOUCH_ASSIGN_OR_RETURN(
      std::shared_ptr<cache::FileBlockProvider> provider,
      cache::FileBlockProvider::Open(
          path, cache::FileProviderOptions{.use_direct = options_.use_direct},
          nullptr, std::move(dictionaries)));
  ++columns_spilled_;
  bytes_written_ += writer.bytes_written();
  return provider;
}

}  // namespace dbtouch::storage
