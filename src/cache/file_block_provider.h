// FileBlockProvider: the disk spill tier behind the BufferManager.
//
// A spilled column lives in one block file — a self-describing header, an
// explicit per-block extent table, and the block payloads back to back:
//
//   +--------------------+  BlockFileHeader (magic, version, geometry)
//   | header  (64 bytes) |
//   +--------------------+  num_blocks x BlockExtent {offset, bytes} —
//   | extent table       |  redundant for fixed-width data, but it makes
//   +--------------------+  the file checkable (a truncated or corrupted
//   | block 0 payload    |  file fails validation instead of serving
//   | block 1 payload    |  garbage) and keeps the format open to future
//   | ...                |  variable-width encodings.
//   +--------------------+
//
// BlockFileWriter streams a column out one block at a time (the spill
// itself never materialises the whole column), FileBlockProvider faults
// blocks back in: pread per block, and a single pread spanning the
// extents for ranged reads (ReadRange — the batched demand fetch path).
// The provider is async(): reads suspend quanta instead of blocking
// workers, exactly like the remote tier.
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

/// On-disk header of a spilled column (or PAX table). Fixed 64 bytes,
/// host endian (spill files are node-local scratch, not an interchange
/// format). Pre-flags files carry zeros where `flags`/`num_columns` now
/// live, which reads back as "plain single-column, dense extents" — the
/// old format, unchanged.
struct BlockFileHeader {
  static constexpr char kMagic[4] = {'D', 'B', 'T', 'B'};
  static constexpr std::uint32_t kVersion = 1;

  /// The file's blocks are PAX multi-column payloads; a column-type
  /// directory (num_columns x uint32) follows the extent table.
  static constexpr std::uint32_t kFlagPax = 1u << 0;
  /// Block payloads start on 4 KiB boundaries (extent.bytes still counts
  /// only real payload) so an O_DIRECT reader can read exact extents.
  static constexpr std::uint32_t kFlagAlignedExtents = 1u << 1;

  char magic[4] = {'D', 'B', 'T', 'B'};
  std::uint32_t version = kVersion;
  std::uint32_t type = 0;   // storage::DataType (PAX: of column 0)
  std::uint32_t width = 0;  // Row bytes in a payload; PAX: summed widths.
  std::int64_t row_count = 0;
  std::int64_t rows_per_block = 0;
  std::int64_t num_blocks = 0;
  /// File offset of the first block payload (= 64 + extent table bytes
  /// + column directory bytes, rounded up to 4 KiB under
  /// kFlagAlignedExtents).
  std::int64_t payload_offset = 0;
  std::uint32_t flags = 0;
  std::uint32_t num_columns = 0;  // 0 for plain single-column files.
  std::int64_t reserved = 0;
};
static_assert(sizeof(BlockFileHeader) == 64, "header layout is part of "
                                             "the on-disk format");

/// Alignment unit for O_DIRECT I/O and aligned extents: covers the
/// logical-block size of any common device and the page size.
inline constexpr std::int64_t kDirectIoAlignment = 4096;

constexpr std::int64_t AlignUpDirect(std::int64_t n) {
  return (n + kDirectIoAlignment - 1) & ~(kDirectIoAlignment - 1);
}

/// One block's location in the file.
struct BlockExtent {
  std::int64_t offset = 0;
  std::int64_t bytes = 0;
};

struct BlockFileWriterOptions {
  /// Pad every block payload's start to a 4 KiB boundary and set
  /// kFlagAlignedExtents, so an O_DIRECT reader can read whole extents
  /// without straddling alignment. Costs at most 4 KiB - 1 per block.
  bool aligned_extents = false;
  /// Write payloads through O_DIRECT (implies aligned_extents). Falls
  /// back to buffered writes when the filesystem refuses O_DIRECT
  /// (tmpfs/CI) — check direct_active() to see which engaged.
  bool use_direct = false;
  /// Non-empty = PAX multi-column payloads: the per-column field types,
  /// recorded in the file's column directory. geometry.row_bytes must
  /// equal PaxLayout(pax_columns).row_bytes().
  std::vector<storage::DataType> pax_columns;
};

/// Streams one column's blocks into a block file: Append each block in
/// order, then Finish (which seals header + extent table). A writer that
/// is destroyed without Finish leaves a file that fails Open validation —
/// a crashed spill can never serve partial data.
class BlockFileWriter {
 public:
  BlockFileWriter(std::string path, const BlockGeometry& geometry,
                  BlockFileWriterOptions options = {});
  ~BlockFileWriter();

  BlockFileWriter(const BlockFileWriter&) = delete;
  BlockFileWriter& operator=(const BlockFileWriter&) = delete;

  /// Appends the next block's payload; must be called in block order with
  /// exactly geometry.BlockRowCount(block) * width bytes.
  Status Append(const std::byte* data, std::size_t size);

  /// Writes the extent table, column directory (PAX) and header. No
  /// Append may follow.
  Status Finish();

  const std::string& path() const { return path_; }
  std::int64_t bytes_written() const { return bytes_written_; }
  /// True when payload writes actually go through O_DIRECT (use_direct
  /// requested and the filesystem accepted it).
  bool direct_active() const { return direct_active_; }

 private:
  std::string path_;
  BlockGeometry geometry_;
  BlockFileWriterOptions options_;
  int fd_ = -1;
  Status open_status_;
  std::int64_t next_block_ = 0;
  /// Next payload write offset (aligned up per block when
  /// aligned_extents); starts at payload_offset.
  std::int64_t bytes_written_ = 0;
  std::vector<BlockExtent> extents_;
  bool finished_ = false;
  bool direct_active_ = false;
  /// O_DIRECT staging: payload copied into an aligned buffer, tail
  /// zero-padded to the alignment unit.
  std::byte* staging_ = nullptr;
  std::size_t staging_capacity_ = 0;
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

/// Pool of 4 KiB-aligned read buffers for O_DIRECT I/O: the kernel DMAs
/// straight into these, bypassing the page cache, so the buffer pool
/// budget is the true memory ceiling (no double-buffering in the kernel).
/// Thread-safe; keeps a small freelist to avoid a posix_memalign per
/// read.
class AlignedBufferPool {
 public:
  struct Buffer {
    std::byte* data = nullptr;
    std::size_t capacity = 0;
  };

  AlignedBufferPool() = default;
  ~AlignedBufferPool();
  AlignedBufferPool(const AlignedBufferPool&) = delete;
  AlignedBufferPool& operator=(const AlignedBufferPool&) = delete;

  /// A buffer of capacity >= bytes (rounded up to the alignment unit),
  /// aligned to kDirectIoAlignment. Dies on allocation failure (as every
  /// other allocation here does).
  Buffer Acquire(std::size_t bytes);
  /// Returns a buffer to the freelist (or frees it once the list is
  /// full). Must be the exact Buffer an Acquire returned.
  void Release(Buffer buffer);

 private:
  static constexpr std::size_t kMaxPooled = 8;
  std::mutex mu_;
  std::vector<Buffer> free_;
};

struct FileProviderOptions {
  /// Open the file anew on every fetch instead of holding one descriptor.
  /// Slower, but makes file-system state observable: a file deleted or
  /// chmodded mid-session fails the next fetch instead of being masked by
  /// the long-lived descriptor. The validation-time geometry still
  /// applies.
  bool reopen_per_fetch = false;
  /// Read payloads with O_DIRECT (page-cache bypass): reads are widened
  /// to 4 KiB-aligned spans into pooled aligned buffers and sliced out.
  /// When the filesystem rejects O_DIRECT (tmpfs/CI) the provider falls
  /// back to plain pread — check direct_active(). Ignored under
  /// reopen_per_fetch (it wants a per-fetch descriptor).
  bool use_direct = false;
};

/// Cold tier over one spilled column (or PAX table) file.
class FileBlockProvider final : public BlockProvider {
 public:
  /// Opens and validates `path` (magic, version, type width, every header
  /// count bounded by the file size, extent table coverage). `dictionary`
  /// is attached to views over fetched blocks (string columns); the
  /// provider keeps it alive. For PAX files, `pax_dictionaries[c]` (when
  /// provided) is the dictionary of schema column c; `dictionary` is
  /// ignored.
  static Result<std::shared_ptr<FileBlockProvider>> Open(
      const std::string& path, const FileProviderOptions& options = {},
      std::shared_ptr<storage::Dictionary> dictionary = nullptr,
      std::vector<std::shared_ptr<storage::Dictionary>> pax_dictionaries =
          {});

  ~FileBlockProvider() override;

  FileBlockProvider(const FileBlockProvider&) = delete;
  FileBlockProvider& operator=(const FileBlockProvider&) = delete;

  const BlockGeometry& geometry() const override { return geometry_; }
  const storage::Dictionary* dictionary() const override {
    return dictionary_.get();
  }
  Result<std::vector<std::byte>> Fetch(std::int64_t block) override;
  /// One pread spanning the adjacent blocks' extents — the coalesced
  /// cold-band read.
  Result<std::vector<std::byte>> ReadRange(std::int64_t first_block,
                                           std::int64_t count) override;
  bool async() const override { return true; }

  const storage::PaxLayout* pax_layout() const override {
    return pax_layout_ ? &*pax_layout_ : nullptr;
  }
  const storage::Dictionary* pax_dictionary(
      std::size_t column) const override {
    return column < pax_dictionaries_.size()
               ? pax_dictionaries_[column].get()
               : nullptr;
  }

  const std::string& path() const { return path_; }
  /// True when reads actually bypass the page cache (use_direct was
  /// requested and the filesystem accepted O_DIRECT at open).
  bool direct_active() const { return direct_active_; }
  /// True when the file's extents start on 4 KiB boundaries
  /// (kFlagAlignedExtents).
  bool aligned_extents() const { return aligned_extents_; }

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

  /// Reads [offset, offset + size) into `dst`: pread on the held (or
  /// per-fetch reopened) descriptor. Applies the fault injector. `what`
  /// labels errors ("block 3" / "blocks 3..7").
  Status ReadAt(std::int64_t offset, std::byte* dst, std::int64_t size,
                const std::string& what);

  std::string path_;
  FileProviderOptions options_;
  std::shared_ptr<storage::Dictionary> dictionary_;
  BlockGeometry geometry_;
  std::vector<BlockExtent> extents_;
  std::optional<storage::PaxLayout> pax_layout_;
  std::vector<std::shared_ptr<storage::Dictionary>> pax_dictionaries_;
  int fd_ = -1;  // -1 in reopen_per_fetch mode.
  bool aligned_extents_ = false;
  bool direct_active_ = false;
  AlignedBufferPool buffer_pool_;
  std::atomic<FileFaultInjector*> injector_{nullptr};
  std::atomic<std::int64_t> reads_{0};
  std::atomic<std::int64_t> ranged_reads_{0};
  std::atomic<std::int64_t> blocks_read_{0};
  std::atomic<std::int64_t> bytes_read_{0};
};

}  // namespace dbtouch::cache

#endif  // DBTOUCH_CACHE_FILE_BLOCK_PROVIDER_H_
