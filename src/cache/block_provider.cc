#include "cache/block_provider.h"

#include <algorithm>
#include <cstring>

#include "common/macros.h"

namespace dbtouch::cache {

Status CheckBlockRange(const BlockGeometry& geometry,
                       std::int64_t first_block, std::int64_t count) {
  if (count <= 0 || first_block < 0 ||
      first_block + count > geometry.num_blocks()) {
    return Status::OutOfRange("block range [" +
                              std::to_string(first_block) + ", " +
                              std::to_string(first_block + count) +
                              ") out of range");
  }
  return Status::OK();
}

Result<std::vector<std::byte>> BlockProvider::ReadRange(
    std::int64_t first_block, std::int64_t count) {
  DBTOUCH_RETURN_IF_ERROR(CheckBlockRange(geometry(), first_block, count));
  const std::int64_t rows =
      std::min((first_block + count) * geometry().rows_per_block,
               geometry().row_count) -
      first_block * geometry().rows_per_block;
  std::vector<std::byte> payload;
  payload.reserve(static_cast<std::size_t>(rows) * geometry().width());
  for (std::int64_t block = first_block; block < first_block + count;
       ++block) {
    DBTOUCH_ASSIGN_OR_RETURN(const std::vector<std::byte> one,
                             Fetch(block));
    payload.insert(payload.end(), one.begin(), one.end());
  }
  return payload;
}

TableBlockProvider::TableBlockProvider(
    const std::shared_ptr<const storage::Table>& table, std::size_t column,
    std::int64_t rows_per_block)
    : table_(table), column_(column) {
  DBTOUCH_CHECK(table != nullptr);
  DBTOUCH_CHECK(column_ < table->schema().num_fields());
  DBTOUCH_CHECK(rows_per_block > 0);
  dictionary_ = table->dictionary(column_);
  geometry_.type = table->schema().field(column_).type;
  geometry_.row_count = table->row_count();
  geometry_.rows_per_block = rows_per_block;
}

Result<std::vector<std::byte>> TableBlockProvider::Fetch(std::int64_t block) {
  if (block < 0 || block >= geometry_.num_blocks()) {
    return Status::OutOfRange("block " + std::to_string(block) +
                              " out of range");
  }
  const std::size_t width = geometry_.width();
  const storage::RowId first = block * geometry_.rows_per_block;
  const std::int64_t count = geometry_.BlockRowCount(block);
  const std::shared_ptr<const storage::Table> table = table_.lock();
  if (table == nullptr) {
    return Status::FailedPrecondition("the table of block " +
                                      std::to_string(block) + " is gone");
  }
  std::vector<std::byte> payload(static_cast<std::size_t>(count) * width);
  // The copy runs under the table's release gate: a concurrent spill
  // reclamation or layout swap waits for it, and the pool keeps only the
  // copy, never a pointer into the matrix. Once the matrix is gone this
  // fetch fails permanently (FailedPrecondition is not a transient fetch
  // error) instead of reading freed memory. A pool fill that meets this
  // retries once on its column's current binding: a reclaim publishes
  // the spill before it releases the matrix, so the retry reads the file.
  DBTOUCH_RETURN_IF_ERROR(table->WithRawColumn(
      column_, [&](const storage::ColumnView& view) -> Status {
        if (view.stride() == width) {
          // Column-major storage: the block is one contiguous run.
          std::memcpy(payload.data(),
                      view.data() + static_cast<std::size_t>(first) * width,
                      payload.size());
        } else {
          // Row-major storage: gather strided fields into a dense block.
          const std::byte* src =
              view.data() + static_cast<std::size_t>(first) * view.stride();
          std::byte* dst = payload.data();
          for (std::int64_t r = 0; r < count; ++r) {
            std::memcpy(dst, src, width);
            src += view.stride();
            dst += width;
          }
        }
        return Status::OK();
      }));
  return payload;
}

RemoteBlockProvider::RemoteBlockProvider(remote::RemoteServer* server,
                                         std::int64_t rows_per_block)
    : server_(server) {
  DBTOUCH_CHECK(server_ != nullptr);
  DBTOUCH_CHECK(rows_per_block > 0);
  geometry_.type = server_->base().type();
  geometry_.row_count = server_->base().row_count();
  geometry_.rows_per_block = rows_per_block;
}

Result<std::vector<std::byte>> RemoteBlockProvider::Fetch(
    std::int64_t block) {
  if (block < 0 || block >= geometry_.num_blocks()) {
    return Status::OutOfRange("block " + std::to_string(block) +
                              " out of range");
  }
  return FetchRows(block * geometry_.rows_per_block,
                   geometry_.BlockRowCount(block),
                   "block " + std::to_string(block));
}

Result<std::vector<std::byte>> RemoteBlockProvider::ReadRange(
    std::int64_t first_block, std::int64_t count) {
  DBTOUCH_RETURN_IF_ERROR(CheckBlockRange(geometry_, first_block, count));
  const storage::RowId first = first_block * geometry_.rows_per_block;
  const std::int64_t rows =
      std::min((first_block + count) * geometry_.rows_per_block,
               geometry_.row_count) -
      first;
  Result<std::vector<std::byte>> payload = FetchRows(
      first, rows,
      "blocks " + std::to_string(first_block) + ".." +
          std::to_string(first_block + count - 1));
  if (payload.ok() && count > 1) {
    ranged_requests_.fetch_add(1, std::memory_order_relaxed);
  }
  return payload;
}

Result<std::vector<std::byte>> RemoteBlockProvider::FetchRows(
    storage::RowId first, std::int64_t count, const std::string& what) {
  std::vector<std::byte> payload;
  {
    const std::lock_guard<std::mutex> lock(server_mu_);
    payload = server_->ReadRange(first, count);
  }
  // A short read is a transport failure (lost or truncated response), not
  // an invariant violation: surface it as a transient status so the fetch
  // path — FetchBlockWithRetry inline, or the FetchQueue's fetchers — can
  // retry with backoff instead of aborting the process.
  const std::size_t expected =
      static_cast<std::size_t>(count) * geometry_.width();
  if (payload.size() != expected) {
    return Status::Aborted("remote short read: got " +
                           std::to_string(payload.size()) + " of " +
                           std::to_string(expected) + " bytes for " + what);
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  bytes_fetched_.fetch_add(static_cast<std::int64_t>(payload.size()),
                           std::memory_order_relaxed);
  return payload;
}

}  // namespace dbtouch::cache
