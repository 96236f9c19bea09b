#include "storage/spill.h"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <utility>

#include "cache/block_provider.h"
#include "common/macros.h"
#include "storage/pax.h"

namespace dbtouch::storage {

namespace {

/// Writes a block file at `path` whose block b holds block b of each of
/// `readers` (reader c reads column c of `layout`) in its minipage slot.
/// Only one block of each column is live at a time. Returns the bytes
/// written.
Result<std::int64_t> WriteBlockFile(
    const std::string& path, const cache::BlockGeometry& geometry,
    const PaxLayout& layout,
    const std::vector<std::unique_ptr<cache::TableBlockProvider>>& readers) {
  cache::BlockFileWriter writer(path, geometry, layout.types());
  std::vector<std::byte> payload;
  for (std::int64_t block = 0; block < geometry.num_blocks(); ++block) {
    const std::int64_t rows = geometry.BlockRowCount(block);
    // The minipages tile the payload exactly, so no byte needs zeroing.
    payload.resize(layout.BlockBytes(rows));
    for (std::size_t c = 0; c < readers.size(); ++c) {
      DBTOUCH_ASSIGN_OR_RETURN(const std::vector<std::byte> minipage,
                               readers[c]->Fetch(block));
      DBTOUCH_CHECK(minipage.size() == layout.MinipageBytes(rows, c));
      std::memcpy(payload.data() + layout.MinipageOffset(rows, c),
                  minipage.data(), minipage.size());
    }
    DBTOUCH_RETURN_IF_ERROR(writer.Append(payload.data(), payload.size()));
  }
  DBTOUCH_RETURN_IF_ERROR(writer.Finish());
  return writer.bytes_written();
}

}  // namespace

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
  return Spill(table, {column}, PathFor(table->name(), column));
}

Result<std::shared_ptr<cache::FileBlockProvider>>
TableSpiller::SpillTablePax(const std::shared_ptr<const Table>& table) {
  if (table == nullptr) {
    return Status::InvalidArgument("null table");
  }
  if (table->schema().num_fields() == 0) {
    return Status::InvalidArgument("table '" + table->name() +
                                   "' has no columns");
  }
  std::vector<std::size_t> columns(table->schema().num_fields());
  std::iota(columns.begin(), columns.end(), std::size_t{0});
  return Spill(table, columns, PaxPathFor(table->name()));
}

Result<std::shared_ptr<cache::FileBlockProvider>> TableSpiller::Spill(
    const std::shared_ptr<const Table>& table,
    const std::vector<std::size_t>& columns, const std::string& path) {
  // The table provider already knows how to densify one block of a column
  // out of either matrix layout; the spill is their blocks streamed to
  // disk in order.
  std::vector<DataType> types;
  std::vector<std::unique_ptr<cache::TableBlockProvider>> readers;
  std::vector<std::shared_ptr<Dictionary>> dictionaries;
  for (const std::size_t c : columns) {
    types.push_back(table->schema().field(c).type);
    readers.push_back(std::make_unique<cache::TableBlockProvider>(
        table, c, options_.rows_per_block));
    dictionaries.push_back(table->dictionary(c));
  }
  const PaxLayout layout(std::move(types));
  cache::BlockGeometry geometry = readers[0]->geometry();
  geometry.row_bytes = layout.row_bytes();

  const std::string temp = path + ".tmp";
  const Result<std::int64_t> written =
      WriteBlockFile(temp, geometry, layout, readers);
  if (!written.ok()) {
    ::unlink(temp.c_str());
    return written.status();
  }
  // A provider still reading the old file keeps its inode. The old name
  // goes before the rename: ext4 flushes a file renamed over an existing
  // one inside the rename, which made a 9M-row double column's spill
  // ~100 ms instead of ~70 ms on a 4-vCPU VM. A failed unlink (there was
  // no old file, say) is harmless: the rename then replaces the file or
  // reports why it cannot.
  ::unlink(path.c_str());
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(temp.c_str());
    return Status::Internal("rename '" + temp + "' to '" + path +
                            "': " + std::strerror(err));
  }
  DBTOUCH_ASSIGN_OR_RETURN(
      std::shared_ptr<cache::FileBlockProvider> provider,
      cache::FileBlockProvider::Open(path, std::move(dictionaries)));
  ++columns_spilled_;
  bytes_written_ += *written;
  return provider;
}

}  // namespace dbtouch::storage
