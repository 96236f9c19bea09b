#include "cache/buffer_manager.h"

#include <algorithm>
#include <utility>

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

/// InvalidArgument unless `provider` serves column `column` at `want`.
Status CheckGeometry(const BlockGeometry& want, const BlockProvider& provider,
                     std::size_t column) {
  const BlockGeometry& got = provider.geometry();
  const storage::PaxLayout* pax = provider.pax_layout();
  const bool type_ok = pax == nullptr ? got.type == want.type
                                      : column < pax->num_columns() &&
                                            pax->type(column) == want.type;
  if (!type_ok || got.row_count != want.row_count ||
      got.rows_per_block != want.rows_per_block) {
    return Status::InvalidArgument(
        "provider serves " + std::to_string(got.row_count) + " rows, " +
        std::to_string(got.rows_per_block) + " a block; the column binding " +
        std::to_string(want.row_count) + " rows, " +
        std::to_string(want.rows_per_block) + " a block, of its own type");
  }
  return Status::OK();
}

}  // namespace

/// PagedColumnSource over one column binding: each pin, fetch and
/// prefetch loads the binding's current record and pins its blocks in the
/// shared BlockCache. Cheap to create; one per bound data object.
class BufferManager::Source final : public storage::PagedColumnSource {
 public:
  Source(BufferManager* manager, std::shared_ptr<const Binding> binding)
      : manager_(manager), binding_(std::move(binding)) {}

  storage::DataType type() const override {
    return binding_->geometry.type;
  }
  const storage::Dictionary* dictionary() const override {
    return DictionaryOf(Current());
  }
  std::int64_t row_count() const override {
    return binding_->geometry.row_count;
  }
  std::int64_t rows_per_block() const override {
    return binding_->geometry.rows_per_block;
  }
  /// Sources of one owner share blocks, so they share a token: two PAX
  /// column sources of the same table dedup to one stall entry.
  std::uintptr_t share_token() const override {
    return static_cast<std::uintptr_t>(Current().owner);
  }

  void OnGesturePause() override {
    manager_->cache_.OnGesturePause(Current().owner);
  }

  /// A fill that fails after the binding changed (a reclaim freed the
  /// matrix it was copying from) retries once on the current record: the
  /// spill is published before the matrix is released, so one retry
  /// reads it.
  Result<storage::BlockPin> PinBlock(std::int64_t block,
                                     storage::RowId row_hint) override {
    DBTOUCH_RETURN_IF_ERROR(CheckBlock(block));
    const Record* record = &Current();
    Result<BlockCache::Pinned> pinned = Pin(*record, block, row_hint);
    if (!pinned.ok() && record != &Current()) {
      record = &Current();
      pinned = Pin(*record, block, row_hint);
    }
    DBTOUCH_RETURN_IF_ERROR(pinned.status());
    return MakePin(*record, block, *pinned);
  }

  /// Non-blocking pin: a cache hit pins as usual; a miss on an immediate
  /// provider fills inline (a memcpy is cheaper than a suspend cycle); a
  /// miss on a slow provider reports "would block" so the caller can
  /// StartFetch and suspend.
  Result<std::optional<storage::BlockPin>> TryPinBlock(
      std::int64_t block, storage::RowId row_hint) override {
    const Record& record = Current();
    if (!record.provider->async()) {
      return PagedColumnSource::TryPinBlock(block, row_hint);
    }
    DBTOUCH_RETURN_IF_ERROR(CheckBlock(block));
    const std::optional<BlockCache::Pinned> pinned =
        manager_->cache_.TryPin(BlockKey{record.owner, block}, row_hint);
    if (!pinned.has_value()) {
      return std::optional<storage::BlockPin>();
    }
    return std::optional<storage::BlockPin>(MakePin(record, block, *pinned));
  }

  bool may_block() const override { return Current().provider->async(); }

  Status StartFetch(std::int64_t block, FetchCompletion done,
                    std::uint64_t tag = 0) override {
    DBTOUCH_RETURN_IF_ERROR(CheckBlock(block));
    const Record& record = Current();
    if (!record.provider->async()) {
      return PagedColumnSource::StartFetch(block, std::move(done), tag);
    }
    // Non-null: publishing an async provider created it.
    FetchQueue* queue = manager_->fetch_queue();
    DBTOUCH_CHECK(queue != nullptr);
    queue->Enqueue(BlockKey{record.owner, block}, record.provider, block,
                   FetchPriority::kDemand, std::move(done), tag);
    return Status::OK();
  }

  /// Ranged warm-up: each non-resident stretch of the predicted path goes
  /// to the queue as one EnqueueRange run, which the fetcher that pops it
  /// reads as one ReadRange (pop-time coalescing, up to
  /// max_coalesce_blocks blocks).
  std::int64_t RequestPrefetchRange(std::int64_t first_block,
                                    std::int64_t last_block,
                                    std::int64_t max_new_blocks) override {
    const Record& record = Current();
    if (!record.provider->async() || max_new_blocks <= 0) {
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
          !manager_->cache_.Contains(BlockKey{record.owner, block});
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
            queue->EnqueueRange(record.owner, record.provider, run_start, len));
        run_start = -1;
      }
    }
    return issued;
  }

 protected:
  void UnpinBlock(std::int64_t block, std::uintptr_t share_token) override {
    manager_->cache_.Unpin(BlockKey{share_token, block});
  }

 private:
  /// One acquire load: no lock, no reference count.
  const Record& Current() const {
    return *binding_->current.load(std::memory_order_acquire);
  }

  static const storage::Dictionary* DictionaryOf(const Record& record) {
    return record.provider->pax_layout() != nullptr
               ? record.provider->pax_dictionary(record.pax_column)
               : record.provider->dictionary();
  }

  Status CheckBlock(std::int64_t block) const {
    if (block < 0 || block >= num_blocks()) {
      return Status::OutOfRange("block " + std::to_string(block) +
                                " out of range");
    }
    return Status::OK();
  }

  /// Pins `block` of `record`'s owner, filling inline on a miss (reads no
  /// residency probe fronts) with the queue's bounded retry policy, so
  /// transient backing-store errors stay transient here too.
  Result<BlockCache::Pinned> Pin(const Record& record, std::int64_t block,
                                 storage::RowId row_hint) {
    return manager_->cache_.Pin(
        BlockKey{record.owner, block}, row_hint, [&] {
          std::int64_t retries = 0;
          auto payload = FetchBlockWithRetry(*record.provider, block,
                                             manager_->config_.fetch,
                                             &retries);
          manager_->sync_retries_.fetch_add(retries,
                                            std::memory_order_relaxed);
          return payload;
        });
  }

  /// View over the pinned payload: the whole block, or the column's
  /// minipage of a PAX block.
  storage::BlockPin MakePin(const Record& record, std::int64_t block,
                            const BlockCache::Pinned& pinned) {
    const std::int64_t rows = BlockRowCount(block);
    const storage::PaxLayout* pax = record.provider->pax_layout();
    const std::byte* data =
        pax == nullptr
            ? pinned.data
            : pinned.data + pax->MinipageOffset(rows, record.pax_column);
    const storage::ColumnView view(type(), data, storage::TypeWidth(type()),
                                   rows, DictionaryOf(record));
    return storage::BlockPin(this, block, view, BlockFirstRow(block),
                             static_cast<std::uintptr_t>(record.owner));
  }

  BufferManager* manager_;  // Not owned; outlives the source.
  std::shared_ptr<const Binding> binding_;
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

std::shared_ptr<BufferManager::Binding> BufferManager::BindingLocked(
    const std::shared_ptr<storage::Table>& table, std::size_t column) {
  std::shared_ptr<Binding>& binding =
      bindings_[{table.get(), table->name(), column}];
  if (binding == nullptr || binding->table.lock() != table) {
    // First use, or the entry is a dead table's whose address this one
    // took over.
    binding = std::make_shared<Binding>();
    binding->table = table;
    binding->geometry = {table->schema().field(column).type,
                         table->row_count(), config_.rows_per_block};
    // Entries of tables that are gone go too; sources keep theirs.
    std::erase_if(bindings_, [](const auto& entry) {
      return std::get<0>(entry.first) != nullptr &&
             entry.second->table.expired();
    });
  }
  return binding;
}

void BufferManager::PublishLocked(Binding& binding,
                                  std::shared_ptr<BlockProvider> provider,
                                  std::size_t column) {
  if (provider->async()) {
    // First slow tier published: spin up the fetchers before any source
    // can load the record. In-memory-only managers (every private kernel
    // SharedState) never reach here.
    EnsureFetchQueue();
  }
  // One owner per provider: a PAX file published for every column of a
  // table is one block namespace.
  std::uint64_t owner = 0;
  for (const auto& [key, other] : bindings_) {
    const Record* record = other->current.load(std::memory_order_relaxed);
    if (record != nullptr && record->provider == provider) {
      owner = record->owner;
      break;
    }
  }
  binding.published.push_back(
      Record{owner != 0 ? owner : next_owner_++, std::move(provider), column});
  binding.current.store(&binding.published.back(), std::memory_order_release);
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
  const std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<Binding> binding = BindingLocked(table, column);
  if (binding->current.load(std::memory_order_relaxed) == nullptr) {
    // First use: the column reads the table's matrix until something else
    // is published.
    PublishLocked(*binding,
                  std::make_shared<TableBlockProvider>(table, column,
                                                       config_.rows_per_block),
                  column);
  }
  // Explicit upcast: Result<T> will not chain the derived-to-base
  // shared_ptr conversion with its own converting constructor.
  return std::shared_ptr<storage::PagedColumnSource>(
      std::make_shared<Source>(this, std::move(binding)));
}

Status BufferManager::Publish(
    const std::shared_ptr<storage::Table>& table,
    const std::vector<std::shared_ptr<BlockProvider>>& providers) {
  DBTOUCH_CHECK(providers.size() <= table->schema().num_fields());
  const std::lock_guard<std::mutex> lock(mu_);
  // Every provider is checked before any is published.
  for (std::size_t column = 0; column < providers.size(); ++column) {
    if (providers[column] != nullptr) {
      DBTOUCH_RETURN_IF_ERROR(CheckGeometry(
          BindingLocked(table, column)->geometry, *providers[column], column));
    }
  }
  for (std::size_t column = 0; column < providers.size(); ++column) {
    if (providers[column] != nullptr) {
      PublishLocked(*BindingLocked(table, column), providers[column], column);
    }
  }
  return Status::OK();
}

Result<std::shared_ptr<storage::PagedColumnSource>> BufferManager::SourceFor(
    const std::string& name, std::size_t column,
    std::shared_ptr<BlockProvider> provider) {
  if (provider == nullptr) {
    return Status::InvalidArgument("null provider");
  }
  const std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<Binding>& binding = bindings_[{nullptr, name, column}];
  if (binding == nullptr) {
    binding = std::make_shared<Binding>();
    binding->geometry = provider->geometry();
  }
  DBTOUCH_RETURN_IF_ERROR(CheckGeometry(binding->geometry, *provider, column));
  PublishLocked(*binding, std::move(provider), column);
  return std::shared_ptr<storage::PagedColumnSource>(
      std::make_shared<Source>(this, binding));
}

}  // namespace dbtouch::cache
