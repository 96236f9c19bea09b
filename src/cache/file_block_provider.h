// FileBlockProvider: the disk spill tier behind the BufferManager.
//
// Every spill file has one format: PAX blocks over one or more columns.
// A self-describing header, an explicit per-block extent table, the
// column directory, and the block payloads back to back:
//
//   +--------------------+  BlockFileHeader (magic, version, geometry)
//   | header  (64 bytes) |
//   +--------------------+  num_blocks x BlockExtent {offset, bytes} —
//   | extent table       |  redundant for fixed-width data, but it makes
//   +--------------------+  the file checkable (a truncated or corrupted
//   | column directory   |  file fails validation instead of serving
//   +--------------------+  garbage) and keeps the format open to future
//   | block 0 payload    |  variable-width encodings. The directory holds
//   | block 1 payload    |  one type code per column; each payload is the
//   | ...                |  columns' minipages (storage/pax.h).
//   +--------------------+
//
// A one-column file is a column-per-block file: its one minipage is the
// column's block. Its provider reports no PAX layout, so the pool binds
// it like any single-column provider.
//
// BlockFileWriter streams blocks out one at a time (the spill itself
// never materialises a whole column), FileBlockProvider faults them back
// in: pread per block, and a single pread spanning the extents for
// ranged reads (ReadRange — the batched demand fetch path). The provider
// is async(): reads suspend quanta instead of blocking workers, exactly
// like the remote tier.
//
// Failure contract (mirrors RemoteBlockProvider): a short pread is a
// transient Status (Aborted) the fetch path retries with backoff; an
// unopenable file (deleted, permission) is permanent and sheds only the
// stalled gesture. FileFaultInjector injects both classes
// deterministically for the fault battery, the file-system ones
// (truncate, unlink) are exercised for real in tests/file_tier_test.cc.

#ifndef DBTOUCH_CACHE_FILE_BLOCK_PROVIDER_H_
#define DBTOUCH_CACHE_FILE_BLOCK_PROVIDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cache/block_provider.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/dictionary.h"
#include "storage/types.h"

namespace dbtouch::cache {

/// On-disk header of a block file. Fixed 64 bytes, host endian (spill
/// files are node-local scratch, not an interchange format).
struct BlockFileHeader {
  static constexpr char kMagic[4] = {'D', 'B', 'T', 'B'};
  /// 2: every file carries a column directory and dense extents. Files of
  /// any other version are refused.
  static constexpr std::uint32_t kVersion = 2;

  char magic[4] = {'D', 'B', 'T', 'B'};
  std::uint32_t version = kVersion;
  std::uint32_t type = 0;   // storage::DataType of column 0.
  std::uint32_t width = 0;  // Row bytes in a payload: summed field widths.
  std::int64_t row_count = 0;
  std::int64_t rows_per_block = 0;
  std::int64_t num_blocks = 0;
  /// File offset of the first block payload (= 64 + extent table bytes
  /// + column directory bytes).
  std::int64_t payload_offset = 0;
  /// Reserved; must be 0, so a file of a later format fails loudly.
  std::uint32_t flags = 0;
  std::uint32_t num_columns = 0;  // Column directory entries, >= 1.
  std::int64_t reserved = 0;
};
static_assert(sizeof(BlockFileHeader) == 64, "header layout is part of "
                                             "the on-disk format");

/// One block's location in the file.
struct BlockExtent {
  std::int64_t offset = 0;
  std::int64_t bytes = 0;
};

/// Streams blocks into a block file: Append each block in order, then
/// Finish (which seals header, extent table and column directory). A
/// writer that is destroyed without Finish leaves a file that fails Open
/// validation — a crashed spill can never serve partial data.
class BlockFileWriter {
 public:
  /// `columns` holds the field type of each column, one entry for a
  /// column file; geometry.width() must equal
  /// storage::PaxLayout(columns).row_bytes() and geometry.type must be
  /// columns[0].
  BlockFileWriter(std::string path, const BlockGeometry& geometry,
                  std::vector<storage::DataType> columns);
  ~BlockFileWriter();

  BlockFileWriter(const BlockFileWriter&) = delete;
  BlockFileWriter& operator=(const BlockFileWriter&) = delete;

  /// Appends the next block's payload; must be called in block order with
  /// exactly geometry.BlockRowCount(block) * width bytes.
  Status Append(const std::byte* data, std::size_t size);

  /// Writes the extent table, column directory and header. No Append may
  /// follow.
  Status Finish();

  const std::string& path() const { return path_; }
  std::int64_t bytes_written() const { return bytes_written_; }

 private:
  std::string path_;
  BlockGeometry geometry_;
  std::vector<storage::DataType> columns_;
  int fd_ = -1;
  Status open_status_;
  std::int64_t next_block_ = 0;
  /// Next payload write offset; starts at the header's payload_offset.
  std::int64_t bytes_written_ = 0;
  std::vector<BlockExtent> extents_;
  bool finished_ = false;
};

/// Deterministic fault injection for the file tier — the disk analogue of
/// RemoteServer::FailNextReads. Installed on a FileBlockProvider, it
/// intercepts backing reads and substitutes a failure:
///
///   kShortRead        -> transient (Aborted): a read returned fewer bytes
///                        than the extent — retried with backoff.
///   kIoError          -> transient (ResourceExhausted): the device
///                        hiccupped (EAGAIN-shaped) — retried.
///   kPermissionDenied -> permanent (Internal): EACCES-shaped — fails the
///                        fetch immediately, shedding only the stalled
///                        gesture.
///
/// Thread-safe: concurrent fetchers draw faults from one budget.
class FileFaultInjector {
 public:
  enum class Fault : std::uint8_t {
    kNone = 0,
    kShortRead,
    kIoError,
    kPermissionDenied,
  };

  /// The next `n` backing reads fail with `fault`.
  void FailNextReads(int n, Fault fault = Fault::kShortRead);
  /// Steady-state flakiness: every `n`th read fails (0 = reliable).
  void set_fail_every(int n, Fault fault = Fault::kShortRead);

  /// Consumed by the provider before each backing read.
  Fault Next();

  std::int64_t injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

 private:
  std::mutex mu_;
  int fail_next_ = 0;
  Fault next_fault_ = Fault::kNone;
  int fail_every_ = 0;
  Fault every_fault_ = Fault::kNone;
  std::int64_t reads_ = 0;
  std::atomic<std::int64_t> injected_{0};
};

/// Cold tier over one block file.
class FileBlockProvider final : public BlockProvider {
 public:
  /// Opens and validates `path` (magic, version, reserved flags, type
  /// codes, every header count bounded by the file size, extent table
  /// coverage). `dictionaries[c]` (when provided) is the dictionary of
  /// column c, attached to views over fetched blocks (string columns);
  /// the provider keeps them alive.
  static Result<std::shared_ptr<FileBlockProvider>> Open(
      const std::string& path,
      std::vector<std::shared_ptr<storage::Dictionary>> dictionaries = {});

  ~FileBlockProvider() override;

  FileBlockProvider(const FileBlockProvider&) = delete;
  FileBlockProvider& operator=(const FileBlockProvider&) = delete;

  const BlockGeometry& geometry() const override { return geometry_; }
  /// A one-column file's dictionary; null for a multi-column file, whose
  /// columns decode through pax_dictionary().
  const storage::Dictionary* dictionary() const override {
    return pax_layout_ ? nullptr : pax_dictionary(0);
  }
  Result<std::vector<std::byte>> Fetch(std::int64_t block) override;
  /// One pread spanning the adjacent blocks' extents — the coalesced
  /// cold-band read.
  Result<std::vector<std::byte>> ReadRange(std::int64_t first_block,
                                           std::int64_t count) override;
  bool async() const override { return true; }

  /// The multi-column layout; null for a one-column file.
  const storage::PaxLayout* pax_layout() const override {
    return pax_layout_ ? &*pax_layout_ : nullptr;
  }
  const storage::Dictionary* pax_dictionary(
      std::size_t column) const override {
    return column < dictionaries_.size() ? dictionaries_[column].get()
                                         : nullptr;
  }

  const std::string& path() const { return path_; }

  /// Observability: backing reads issued (single + ranged), how many were
  /// ranged, blocks they covered, and payload bytes read from disk.
  std::int64_t reads() const {
    return reads_.load(std::memory_order_relaxed);
  }
  std::int64_t ranged_reads() const {
    return ranged_reads_.load(std::memory_order_relaxed);
  }
  std::int64_t blocks_read() const {
    return blocks_read_.load(std::memory_order_relaxed);
  }
  std::int64_t bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }

  /// Installs a fault injector (not owned; may be null to clear).
  void set_fault_injector(FileFaultInjector* injector) {
    injector_.store(injector, std::memory_order_release);
  }

 private:
  FileBlockProvider() = default;

  /// Reads [offset, offset + size) into `dst`: pread on the held
  /// descriptor. Applies the fault injector. `what` labels errors
  /// ("block 3" / "blocks 3..7").
  Status ReadAt(std::int64_t offset, std::byte* dst, std::int64_t size,
                const std::string& what);

  std::string path_;
  BlockGeometry geometry_;
  std::vector<BlockExtent> extents_;
  std::optional<storage::PaxLayout> pax_layout_;
  std::vector<std::shared_ptr<storage::Dictionary>> dictionaries_;
  int fd_ = -1;
  std::atomic<FileFaultInjector*> injector_{nullptr};
  std::atomic<std::int64_t> reads_{0};
  std::atomic<std::int64_t> ranged_reads_{0};
  std::atomic<std::int64_t> blocks_read_{0};
  std::atomic<std::int64_t> bytes_read_{0};
};

}  // namespace dbtouch::cache

#endif  // DBTOUCH_CACHE_FILE_BLOCK_PROVIDER_H_
