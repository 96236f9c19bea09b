#include "cache/buffer_manager.h"

#include <algorithm>
#include <limits>

#include "common/macros.h"

namespace dbtouch::cache {

namespace {

BlockCache::Config CacheConfigFrom(const BufferManagerConfig& config) {
  BlockCache::Config out;
  out.capacity_bytes = config.budget_bytes;
  out.gesture_aware = config.gesture_aware;
  out.scan_run_length = config.scan_run_length;
  // Never shard so finely that one shard cannot retain a handful of
  // blocks — a shard whose budget is below one block rejects every
  // admission and the cache silently degrades to transient-only service.
  // Sized for the widest (8-byte) field.
  const std::int64_t block_bytes = config.rows_per_block * 8;
  const std::int64_t max_shards =
      std::max<std::int64_t>(config.budget_bytes / (4 * block_bytes), 1);
  out.shards = static_cast<int>(
      std::min<std::int64_t>(config.shards, max_shards));
  // The staging pad must hold at least one block per shard, or a
  // multi-block stall would thrash it — each completion evicting the
  // previous block, the resume re-fetching what was already delivered.
  out.staged_cap_bytes = std::max<std::int64_t>(
      config.staged_cap_bytes > 0 ? config.staged_cap_bytes
                                  : config.budget_bytes / 8,
      out.shards * block_bytes);
  return out;
}

}  // namespace

/// PagedColumnSource pinning blocks in the shared BlockCache and faulting
/// from one provider. Cheap to create; one per bound data object.
class BufferManager::Source : public storage::PagedColumnSource {
 public:
  Source(BufferManager* manager, std::uint64_t owner,
         std::shared_ptr<BlockProvider> provider)
      : manager_(manager), owner_(owner), provider_(std::move(provider)) {}

  storage::DataType type() const override {
    return provider_->geometry().type;
  }
  const storage::Dictionary* dictionary() const override {
    return provider_->dictionary();
  }
  std::int64_t row_count() const override {
    return provider_->geometry().row_count;
  }
  std::int64_t rows_per_block() const override {
    return provider_->geometry().rows_per_block;
  }
  /// Sources of one binding share blocks, so they share a token: two PAX
  /// column sources of the same table dedup to one stall entry.
  std::uintptr_t share_token() const override {
    return static_cast<std::uintptr_t>(owner_);
  }

  void OnGesturePause() override {
    manager_->cache_.OnGesturePause(owner_);
  }

  Result<storage::BlockPin> PinBlock(std::int64_t block,
                                     storage::RowId row_hint) override {
    if (block < 0 || block >= num_blocks()) {
      return Status::OutOfRange("block " + std::to_string(block) +
                                " out of range");
    }
    const BlockKey key{owner_, block};
    DBTOUCH_ASSIGN_OR_RETURN(
        const BlockCache::Pinned pinned,
        manager_->cache_.Pin(key, row_hint, [&] {
          // Inline fill under the shard lock (reads no residency probe
          // fronts); shares the queue's bounded retry policy so transient
          // backing-store errors stay transient here too.
          std::int64_t retries = 0;
          auto payload = FetchBlockWithRetry(*provider_, block,
                                             manager_->config_.fetch,
                                             &retries);
          manager_->sync_retries_.fetch_add(retries,
                                            std::memory_order_relaxed);
          return payload;
        }));
    return MakePin(block, pinned);
  }

  /// Non-blocking pin: a cache hit pins as usual; a miss on an immediate
  /// provider fills inline (a memcpy is cheaper than a suspend cycle); a
  /// miss on a slow provider reports "would block" so the caller can
  /// StartFetch and suspend.
  Result<std::optional<storage::BlockPin>> TryPinBlock(
      std::int64_t block, storage::RowId row_hint) override {
    if (!may_block()) {
      return PagedColumnSource::TryPinBlock(block, row_hint);
    }
    if (block < 0 || block >= num_blocks()) {
      return Status::OutOfRange("block " + std::to_string(block) +
                                " out of range");
    }
    const std::optional<BlockCache::Pinned> pinned =
        manager_->cache_.TryPin(BlockKey{owner_, block}, row_hint);
    if (!pinned.has_value()) {
      return std::optional<storage::BlockPin>();
    }
    return std::optional<storage::BlockPin>(MakePin(block, *pinned));
  }

  bool may_block() const override { return provider_->async(); }

  Status StartFetch(std::int64_t block, FetchCompletion done,
                    std::uint64_t tag = 0) override {
    if (block < 0 || block >= num_blocks()) {
      return Status::OutOfRange("block " + std::to_string(block) +
                                " out of range");
    }
    if (!may_block()) {
      return PagedColumnSource::StartFetch(block, std::move(done), tag);
    }
    // Non-null by construction: binding an async provider created it.
    FetchQueue* queue = manager_->fetch_queue();
    DBTOUCH_CHECK(queue != nullptr);
    queue->Enqueue(BlockKey{owner_, block}, provider_, block,
                   FetchPriority::kDemand, std::move(done), tag);
    return Status::OK();
  }

  /// Ranged warm-up: each non-resident stretch of the predicted path goes
  /// to the queue as ONE pre-formed ranged ticket (one ReadRange when it
  /// pops), so the extrapolation horizon — not pop-time re-merging or its
  /// max_coalesce_blocks cap — decides the read size.
  std::int64_t RequestPrefetchRange(std::int64_t first_block,
                                    std::int64_t last_block,
                                    std::int64_t max_new_blocks) override {
    if (!may_block() || max_new_blocks <= 0) {
      return 0;
    }
    FetchQueue* queue = manager_->fetch_queue();
    DBTOUCH_CHECK(queue != nullptr);
    first_block = std::max<std::int64_t>(first_block, 0);
    last_block = std::min<std::int64_t>(last_block, num_blocks() - 1);
    std::int64_t issued = 0;
    std::int64_t run_start = -1;  // First block of the current cold run.
    for (std::int64_t block = first_block;
         block <= last_block + 1 && issued < max_new_blocks; ++block) {
      const bool missing =
          block <= last_block &&
          !manager_->cache_.Contains(BlockKey{owner_, block});
      if (missing) {
        if (run_start < 0) {
          run_start = block;
        }
        continue;
      }
      if (run_start >= 0) {
        const std::int64_t len =
            std::min<std::int64_t>(block - run_start, max_new_blocks - issued);
        issued += static_cast<std::int64_t>(
            queue->EnqueueRange(owner_, provider_, run_start, len));
        run_start = -1;
      }
    }
    return issued;
  }

 protected:
  void UnpinBlock(std::int64_t block) override {
    manager_->cache_.Unpin(BlockKey{owner_, block});
  }

  /// View over the pinned payload handed to BlockPin. Virtual so PAX
  /// sources can carve their column's minipage out of the shared payload.
  virtual storage::BlockPin MakePin(std::int64_t block,
                                    const BlockCache::Pinned& pinned) {
    const storage::ColumnView view(
        type(), pinned.data, provider_->geometry().width(),
        provider_->geometry().BlockRowCount(block), dictionary());
    return storage::BlockPin(this, block, view, BlockFirstRow(block));
  }

  BufferManager* manager_;  // Not owned; outlives the source.
  std::uint64_t owner_;
  std::shared_ptr<BlockProvider> provider_;
};

/// One schema column of a PAX binding: pins the shared multi-column block
/// and views only its own minipage. Everything else — fetch, stall,
/// prefetch, residency — is the base Source against the shared owner.
class BufferManager::PaxSource final : public BufferManager::Source {
 public:
  PaxSource(BufferManager* manager, std::uint64_t owner,
            std::shared_ptr<BlockProvider> provider, std::size_t column)
      : Source(manager, owner, std::move(provider)), column_(column) {}

  storage::DataType type() const override {
    return provider_->pax_layout()->type(column_);
  }
  const storage::Dictionary* dictionary() const override {
    return provider_->pax_dictionary(column_);
  }

 protected:
  storage::BlockPin MakePin(std::int64_t block,
                            const BlockCache::Pinned& pinned) override {
    const storage::PaxLayout& layout = *provider_->pax_layout();
    const std::int64_t rows = provider_->geometry().BlockRowCount(block);
    const storage::ColumnView view(
        type(), pinned.data + layout.MinipageOffset(rows, column_),
        storage::TypeWidth(type()), rows, dictionary());
    return storage::BlockPin(this, block, view, BlockFirstRow(block));
  }

 private:
  std::size_t column_;
};

BufferManager::BufferManager(const BufferManagerConfig& config)
    : config_(config), cache_(CacheConfigFrom(config)) {
  DBTOUCH_CHECK(config.rows_per_block > 0);
}

BufferManager::~BufferManager() {
  FetchQueue* queue = fetch_queue();
  if (queue != nullptr) {
    queue->Shutdown();  // Stop deliveries into cache_ first.
  }
}

void BufferManager::EnsureFetchQueue() {
  std::call_once(fetch_queue_once_, [this] {
    fetch_queue_ = std::make_unique<FetchQueue>(
        config_.fetch, [this](const BlockKey& key,
                              std::vector<std::byte> payload,
                              FetchPriority priority) {
          cache_.Insert(key, std::move(payload),
                        priority == FetchPriority::kDemand);
        });
    fetch_queue_->set_trace_recorder(
        trace_recorder_.load(std::memory_order_acquire));
    fetch_queue_ptr_.store(fetch_queue_.get(), std::memory_order_release);
  });
}

void BufferManager::SetTraceRecorder(obs::TraceRecorder* recorder) {
  trace_recorder_.store(recorder, std::memory_order_release);
  FetchQueue* queue = fetch_queue();
  if (queue != nullptr) {
    queue->set_trace_recorder(recorder);
  }
}

FetchQueueStats BufferManager::fetch_stats() const {
  const FetchQueue* queue = fetch_queue();
  return queue != nullptr ? queue->stats() : FetchQueueStats{};
}

std::size_t BufferManager::CancelFetches(std::uint64_t tag) {
  FetchQueue* queue = fetch_queue();
  return queue != nullptr ? queue->CancelTagged(tag) : 0;
}

void BufferManager::WaitForFetches() {
  FetchQueue* queue = fetch_queue();
  if (queue != nullptr) {
    queue->WaitIdle();
  }
}

BufferManager::Binding BufferManager::BindOwner(
    const std::string& name, std::size_t column, const void* identity,
    const std::function<std::shared_ptr<BlockProvider>()>& make_provider) {
  const std::lock_guard<std::mutex> lock(mu_);
  Binding& binding = bindings_[{name, column}];
  if (binding.identity != identity) {
    // First bind, or the name now denotes different data: a fresh owner id
    // gives it a clean block namespace (stale blocks age out via LRU; the
    // retired owner's gesture detector is dropped eagerly).
    if (binding.owner != 0) {
      cache_.ForgetOwner(binding.owner);
    }
    binding.identity = identity;
    binding.owner = next_owner_++;
    binding.provider = make_provider();
  }
  if (binding.provider->async()) {
    // First slow tier bound: spin up the fetchers. In-memory-only
    // managers (every private kernel SharedState) never reach here.
    EnsureFetchQueue();
  }
  return binding;
}

Result<std::shared_ptr<storage::PagedColumnSource>>
BufferManager::ColumnSource(const std::shared_ptr<storage::Table>& table,
                            std::size_t column) {
  if (table == nullptr) {
    return Status::InvalidArgument("null table");
  }
  if (column >= table->schema().num_fields()) {
    return Status::OutOfRange("column " + std::to_string(column) +
                              " out of range for table '" + table->name() +
                              "'");
  }
  const Binding binding = BindOwner(table->name(), column, table.get(), [&] {
    return std::make_shared<TableBlockProvider>(table, column,
                                                config_.rows_per_block);
  });
  // Explicit upcast: Result<T> will not chain the derived-to-base
  // shared_ptr conversion with its own converting constructor.
  return std::shared_ptr<storage::PagedColumnSource>(
      std::make_shared<Source>(this, binding.owner, binding.provider));
}

std::shared_ptr<storage::PagedColumnSource> BufferManager::SourceFor(
    const std::string& name, std::size_t column,
    std::shared_ptr<BlockProvider> provider) {
  DBTOUCH_CHECK(provider != nullptr);
  const Binding binding = BindOwner(name, column, provider.get(),
                                    [&] { return provider; });
  return std::make_shared<Source>(this, binding.owner, binding.provider);
}

Result<std::shared_ptr<storage::PagedColumnSource>>
BufferManager::PaxSourceFor(const std::string& name, std::size_t column,
                            std::shared_ptr<BlockProvider> provider) {
  if (provider == nullptr || provider->pax_layout() == nullptr) {
    return Status::InvalidArgument("provider for '" + name +
                                   "' is not a PAX provider");
  }
  if (column >= provider->pax_layout()->num_columns()) {
    return Status::OutOfRange("PAX column " + std::to_string(column) +
                              " out of range for '" + name + "'");
  }
  // All columns bind under one sentinel column key: one owner, one block
  // namespace — a fault for any column is a hit for the rest.
  constexpr std::size_t kPaxBindingColumn =
      std::numeric_limits<std::size_t>::max();
  const Binding binding = BindOwner(name, kPaxBindingColumn, provider.get(),
                                    [&] { return provider; });
  return std::shared_ptr<storage::PagedColumnSource>(
      std::make_shared<PaxSource>(this, binding.owner, binding.provider,
                                  column));
}

}  // namespace dbtouch::cache
