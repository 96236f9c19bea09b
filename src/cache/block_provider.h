// BlockProvider: the backing-store seam behind the BufferManager. A
// provider materialises one fixed-size block of a column as densely packed
// native-width fields; the BufferManager decides which blocks stay
// resident. Three tiers ship today:
//
//   - TableBlockProvider: copies blocks out of an in-memory base table
//     (the fast tier — a fault costs one memcpy).
//   - RemoteBlockProvider: faults blocks in from a remote::RemoteServer
//     via range reads of the base column's field bytes (paper Section 4's
//     slow tier: "the server may store the base data ... while the touch
//     device may store only small samples").
//   - FileBlockProvider (cache/file_block_provider.h): the disk spill tier
//     over a block file, single-column or PAX.

#ifndef DBTOUCH_CACHE_BLOCK_PROVIDER_H_
#define DBTOUCH_CACHE_BLOCK_PROVIDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "remote/remote_store.h"
#include "storage/dictionary.h"
#include "storage/pax.h"
#include "storage/table.h"
#include "storage/types.h"

namespace dbtouch::cache {

/// Shape of the column (or PAX row-group) a provider serves.
struct BlockGeometry {
  storage::DataType type = storage::DataType::kInt32;
  std::int64_t row_count = 0;
  std::int64_t rows_per_block = 0;
  /// Bytes one row contributes to a block payload. 0 (the default) means
  /// "derive from `type`" — the single-column case. PAX multi-column
  /// providers set it to the summed field widths, so every size formula
  /// below (payload = BlockRowCount * width()) holds unchanged.
  std::size_t row_bytes = 0;

  std::size_t width() const {
    return row_bytes != 0 ? row_bytes : storage::TypeWidth(type);
  }
  std::int64_t num_blocks() const {
    return rows_per_block == 0
               ? 0
               : (row_count + rows_per_block - 1) / rows_per_block;
  }
  std::int64_t BlockRowCount(std::int64_t block) const {
    const std::int64_t first = block * rows_per_block;
    return std::min<std::int64_t>(rows_per_block, row_count - first);
  }
};

/// Shared bounds validation for Fetch/ReadRange implementations: OK iff
/// [first_block, first_block + count) lies inside the geometry.
Status CheckBlockRange(const BlockGeometry& geometry,
                       std::int64_t first_block, std::int64_t count);

class BlockProvider {
 public:
  virtual ~BlockProvider() = default;

  virtual const BlockGeometry& geometry() const = 0;
  /// Dictionary to attach to views over fetched blocks (string columns).
  virtual const storage::Dictionary* dictionary() const { return nullptr; }

  /// Materialises block `block` as geometry().BlockRowCount(block) densely
  /// packed fields of geometry().width() bytes. Must be thread-safe: the
  /// BufferManager may fault different blocks concurrently.
  ///
  /// Errors are data, not invariants: a provider over a lossy transport
  /// returns a transient status (Aborted / ResourceExhausted /
  /// DeadlineExceeded) and the fetch path retries with backoff — see
  /// cache/fetch_queue.h.
  virtual Result<std::vector<std::byte>> Fetch(std::int64_t block) = 0;

  /// Materialises blocks [first_block, first_block + count) as one densely
  /// packed payload (block payloads back to back). This is the batched
  /// demand-fetch seam: when a cold summary band misses N adjacent blocks,
  /// the fetch path calls this once instead of Fetch N times, so tiers
  /// with per-request cost (disk seeks, remote round trips) pay it once.
  /// The default loops over Fetch — correct for every provider, no faster.
  virtual Result<std::vector<std::byte>> ReadRange(std::int64_t first_block,
                                                   std::int64_t count);

  /// True when Fetch is slow enough that callers should suspend on it
  /// rather than block a worker (remote / disk tiers). Immediate providers
  /// (in-memory copies) fill synchronously even on the non-blocking path.
  virtual bool async() const { return false; }

  /// Multi-column (PAX) providers: how each block payload is carved into
  /// per-column minipages. Null for single-column providers. The layout
  /// must stay valid for the provider's lifetime.
  virtual const storage::PaxLayout* pax_layout() const { return nullptr; }

  /// Dictionary of PAX column `column` (string columns), else null. Only
  /// meaningful when pax_layout() is non-null.
  virtual const storage::Dictionary* pax_dictionary(
      std::size_t column) const {
    (void)column;
    return nullptr;
  }
};

/// Fast tier: blocks copied out of an in-memory table column. Reads the
/// column view at fetch time, so a layout rotation between faults changes
/// the copy path, never the values. The provider does not keep the table
/// alive (a pool binding outlives a dropped or re-registered table, and
/// must not hold its matrix); once the table is gone, fetches fail
/// cleanly.
class TableBlockProvider final : public BlockProvider {
 public:
  TableBlockProvider(const std::shared_ptr<const storage::Table>& table,
                     std::size_t column, std::int64_t rows_per_block);

  const BlockGeometry& geometry() const override { return geometry_; }
  const storage::Dictionary* dictionary() const override {
    return dictionary_.get();
  }
  Result<std::vector<std::byte>> Fetch(std::int64_t block) override;

 private:
  std::weak_ptr<const storage::Table> table_;
  std::shared_ptr<const storage::Dictionary> dictionary_;
  std::size_t column_;
  BlockGeometry geometry_;
};

/// Slow tier: blocks faulted in from a RemoteServer's base column through
/// ranged reads. The wire carries the fields' own bytes at the column's
/// width, so every type round-trips exactly; string columns ship their
/// codes and decode through the served column's dictionary.
class RemoteBlockProvider final : public BlockProvider {
 public:
  /// Serves `server->base()`; `server` must outlive the provider.
  RemoteBlockProvider(remote::RemoteServer* server,
                      std::int64_t rows_per_block);

  const BlockGeometry& geometry() const override { return geometry_; }
  const storage::Dictionary* dictionary() const override {
    return server_->base().dictionary();
  }
  Result<std::vector<std::byte>> Fetch(std::int64_t block) override;
  /// One ranged read against the server spanning the blocks' rows — N
  /// adjacent cold blocks cost one round trip instead of N.
  Result<std::vector<std::byte>> ReadRange(std::int64_t first_block,
                                           std::int64_t count) override;
  bool async() const override { return true; }

  std::int64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  std::int64_t ranged_requests() const {
    return ranged_requests_.load(std::memory_order_relaxed);
  }
  std::int64_t bytes_fetched() const {
    return bytes_fetched_.load(std::memory_order_relaxed);
  }

 private:
  /// Shared fetch core: reads `count` rows from `first` as one server
  /// range read.
  Result<std::vector<std::byte>> FetchRows(storage::RowId first,
                                           std::int64_t count,
                                           const std::string& what);
  remote::RemoteServer* server_;  // Not owned.
  /// RemoteServer models one synchronous endpoint and is not itself
  /// thread-safe; faults from concurrent cache shards serialise here.
  std::mutex server_mu_;
  BlockGeometry geometry_;
  std::atomic<std::int64_t> requests_{0};
  std::atomic<std::int64_t> ranged_requests_{0};
  std::atomic<std::int64_t> bytes_fetched_{0};
};

}  // namespace dbtouch::cache

#endif  // DBTOUCH_CACHE_BLOCK_PROVIDER_H_
