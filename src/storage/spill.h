// TableSpiller: writes a loaded Table's columns out as block files, so the
// base data can be served from disk through cache::FileBlockProvider
// instead of RAM. With the columns spilled and rebound
// (core::SharedState::SpillTable), the BufferManager's byte budget is the
// only resident bound on base-data reads: blocks fault in from the file,
// evicted blocks cost nothing (the file *is* the copy — spilling is the
// write-once eviction path; everything after is re-faultable), and a table
// many times the budget explores through a bounded pool.
//
// The spill streams one block at a time through a TableBlockProvider — a
// column is never materialised whole — so spilling itself runs in O(block)
// memory. Spilled columns are treated as frozen, like registered tables
// generally are under sharing: a layout rotation after a spill rewrites
// only the in-memory matrix, so server sessions (where rotation is
// disabled) always see consistent data.

#ifndef DBTOUCH_STORAGE_SPILL_H_
#define DBTOUCH_STORAGE_SPILL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "cache/file_block_provider.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/table.h"

namespace dbtouch::storage {

struct SpillOptions {
  /// Rows per on-disk block. Callers that rebind into a BufferManager
  /// should match its rows_per_block so cache keys and file blocks agree.
  std::int64_t rows_per_block = 16'384;
  /// Start every block payload on a 4 KiB boundary (see
  /// cache::BlockFileWriterOptions::aligned_extents).
  bool aligned_extents = false;
  /// Spill and fault through O_DIRECT (implies aligned extents; falls
  /// back to buffered I/O where the filesystem refuses — tmpfs/CI).
  bool use_direct = false;
};

class TableSpiller {
 public:
  /// `dir` must exist and be writable; spill files are created inside it
  /// as "<table>.<column>.dbb".
  explicit TableSpiller(std::string dir, SpillOptions options = {});

  /// Streams `table.column` into its block file and opens a provider over
  /// it (the column's dictionary rides along for string decoding).
  /// Overwrites any previous spill of the same column.
  Result<std::shared_ptr<cache::FileBlockProvider>> SpillColumn(
      const std::shared_ptr<const Table>& table, std::size_t column);

  /// Streams the whole table into one PAX block file — each block holds
  /// every column's minipage for its row range (storage/pax.h) — and
  /// opens a provider over it. One fault then makes a block's rows
  /// resident for *all* attributes, which is what a fat-table gesture
  /// probe touches. Overwrites any previous PAX spill of the table.
  Result<std::shared_ptr<cache::FileBlockProvider>> SpillTablePax(
      const std::shared_ptr<const Table>& table);

  std::string PathFor(const std::string& table, std::size_t column) const;
  std::string PaxPathFor(const std::string& table) const;

  const SpillOptions& options() const { return options_; }
  std::int64_t columns_spilled() const { return columns_spilled_; }
  std::int64_t bytes_written() const { return bytes_written_; }

 private:
  std::string dir_;
  SpillOptions options_;
  std::int64_t columns_spilled_ = 0;
  std::int64_t bytes_written_ = 0;
};

}  // namespace dbtouch::storage

#endif  // DBTOUCH_STORAGE_SPILL_H_
