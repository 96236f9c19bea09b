// TableSpiller: writes a loaded Table's columns out as block files, so the
// base data can be served from disk through cache::FileBlockProvider
// instead of RAM. With the columns spilled and the files published into
// their bindings (core::SharedState::SpillTable), the BufferManager's byte
// budget is the only resident bound on base-data reads: blocks fault in
// from the file, evicted blocks cost nothing (the file *is* the copy —
// spilling is the write-once eviction path; everything after is
// re-faultable), and a table many times the budget explores through a
// bounded pool.
//
// Both layouts write the one block-file format (cache/file_block_provider.h)
// through one writer: SpillColumn a file of one column, SpillTablePax a
// file of every column. The spill streams one block at a time through
// TableBlockProviders — a column is never materialised whole — so
// spilling itself runs in O(block) memory. Each file is written under a
// temporary name and takes the place of the old one only once it is
// complete, so a failed or repeated spill never touches the file a bound
// provider reads. Spilled columns are treated as frozen, like registered tables
// generally are under sharing: a layout rotation after a spill rewrites
// only the in-memory matrix, so server sessions (where rotation is
// disabled) always see consistent data.

#ifndef DBTOUCH_STORAGE_SPILL_H_
#define DBTOUCH_STORAGE_SPILL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/file_block_provider.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/table.h"

namespace dbtouch::storage {

struct SpillOptions {
  /// Rows per on-disk block. core::SharedState's spills require the
  /// pool's rows_per_block (InvalidArgument before any file is written
  /// otherwise): a column binding's block numbering never changes.
  std::int64_t rows_per_block = 16'384;
};

class TableSpiller {
 public:
  /// `dir` must exist and be writable; spill files are created inside it
  /// as "<table>.<column>.dbb".
  explicit TableSpiller(std::string dir, SpillOptions options = {});

  /// Streams `table.column` into its block file and opens a provider over
  /// it (the column's dictionary rides along for string decoding).
  /// Replaces any previous spill of the same column.
  Result<std::shared_ptr<cache::FileBlockProvider>> SpillColumn(
      const std::shared_ptr<const Table>& table, std::size_t column);

  /// Streams the whole table into one PAX block file — each block holds
  /// every column's minipage for its row range (storage/pax.h) — and
  /// opens a provider over it. One fault then makes a block's rows
  /// resident for *all* attributes, which is what a fat-table gesture
  /// probe touches. Replaces any previous PAX spill of the table.
  Result<std::shared_ptr<cache::FileBlockProvider>> SpillTablePax(
      const std::shared_ptr<const Table>& table);

  std::string PathFor(const std::string& table, std::size_t column) const;
  std::string PaxPathFor(const std::string& table) const;

  const SpillOptions& options() const { return options_; }
  std::int64_t columns_spilled() const { return columns_spilled_; }
  std::int64_t bytes_written() const { return bytes_written_; }

 private:
  /// Streams `columns` of `table` into one block file at `path` (written
  /// as "<path>.tmp", renamed to `path` once finished, unlinked on any
  /// failure) and opens a provider over it.
  Result<std::shared_ptr<cache::FileBlockProvider>> Spill(
      const std::shared_ptr<const Table>& table,
      const std::vector<std::size_t>& columns, const std::string& path);

  std::string dir_;
  SpillOptions options_;
  std::int64_t columns_spilled_ = 0;
  std::int64_t bytes_written_ = 0;
};

}  // namespace dbtouch::storage

#endif  // DBTOUCH_STORAGE_SPILL_H_
