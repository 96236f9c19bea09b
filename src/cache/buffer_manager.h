// BufferManager: the server-wide buffer pool the touch read path runs
// through. Column data lives in fixed-size blocks owned by a payload-
// holding BlockCache (pin/unpin, byte budget, gesture-aware scan-bypass
// admission), keyed by (owner, block) and faulted in from a pluggable
// BlockProvider — the in-memory base table by default, a spill file or a
// remote::RemoteStore adapter for cold tiers.
//
// One BufferManager serves every session of a SharedState, so concurrent
// sessions share one bounded memory footprint; per-object access goes
// through storage::PagedColumnSource handles this class hands out, which
// kernels and exec operators consume without knowing whether the bytes
// are cached copies or zero-copy views.
//
// Bindings: the manager keeps exactly one binding per (table, column) for
// the column's whole life. What the column reads right now is an
// immutable {owner, provider, PAX column} record the binding publishes;
// every source of the column loads the current record on each pin, fetch
// and prefetch, so a spill, a reclaim or a new provider changes what
// every source reads, those handed out earlier included, and nothing is
// ever rebound. A binding's geometry (type, row count, rows per block) is
// fixed when it is created, so block numbering never changes under a
// cursor: a publish at another geometry is refused.
//
// Thread-safety: publishing is mutex-guarded and rare (one per spill or
// SetColumnProvider); the pin path takes no lock of the manager's, only
// one acquire load of the record, and pins go to the sharded BlockCache.
// Every record a binding ever published lives as long as the binding,
// which each of its sources holds, so a reader that loaded one before a
// publish can finish with it. Handed-out sources must not outlive the
// manager (the SharedState owns both the manager and, transitively, the
// kernels holding sources).

#ifndef DBTOUCH_CACHE_BUFFER_MANAGER_H_
#define DBTOUCH_CACHE_BUFFER_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "cache/block_cache.h"
#include "cache/block_provider.h"
#include "cache/fetch_queue.h"
#include "common/result.h"
#include "storage/paged_column.h"
#include "storage/table.h"

namespace dbtouch::cache {

struct BufferManagerConfig {
  /// Byte budget for resident (retained) block payloads.
  std::int64_t budget_bytes = 64ll << 20;
  /// Rows per block. 16K rows of an 8-byte column = 128 KiB blocks.
  std::int64_t rows_per_block = 16'384;
  /// Gesture-aware scan-bypass admission (see BlockCache).
  bool gesture_aware = true;
  int scan_run_length = 8;
  /// BlockCache shards; the touch server raises this so workers pinning
  /// different blocks do not contend.
  int shards = 1;
  /// Fetch pipeline for slow (async()) providers: misses probed via
  /// TryPinBlock go to a FetchQueue instead of blocking the pinning
  /// thread.
  FetchQueueConfig fetch;
  /// Cap on unclaimed async completions (see BlockCache::Config).
  std::int64_t staged_cap_bytes = 0;
};

class BufferManager {
 public:
  explicit BufferManager(const BufferManagerConfig& config = {});
  ~BufferManager();

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// A paged source over the binding of `table.column`. The binding is
  /// created on first use, pinned to the table's identity, with the
  /// table's in-memory blocks (a TableBlockProvider) as its first record
  /// and the pool's rows_per_block as its block size. A name
  /// re-registered with another table gets a fresh binding under a fresh
  /// block namespace, so stale cached blocks can never serve the new data;
  /// sources of the old table keep reading the old binding.
  Result<std::shared_ptr<storage::PagedColumnSource>> ColumnSource(
      const std::shared_ptr<storage::Table>& table, std::size_t column);

  /// Publishes `providers[c]`, where non-null, as what column c of
  /// `table` reads from now on: every source of the column, handed out
  /// before or after, reads through it. A provider's blocks are cached
  /// under one owner (block namespace): a fresh one, or the one it has
  /// where a binding already reads it. So one provider published for
  /// several columns — a PAX spill file — has ONE owner: a block pinned
  /// for any of those columns is resident for all of them, and their
  /// sources report one share_token(). Every provider is checked before any
  /// is published: a geometry other than the binding's (type, row count,
  /// rows per block) is InvalidArgument and leaves every binding as it
  /// was.
  Status Publish(const std::shared_ptr<storage::Table>& table,
                 const std::vector<std::shared_ptr<BlockProvider>>& providers);

  /// Publishes `provider` into the binding of `name.column`, which has no
  /// table behind it (its geometry is the first provider's), and returns a
  /// source over it — the test and bench seam. Same rules as Publish.
  Result<std::shared_ptr<storage::PagedColumnSource>> SourceFor(
      const std::string& name, std::size_t column,
      std::shared_ptr<BlockProvider> provider);

  /// Gesture pause: interest in the current region, admission resumes.
  void OnGesturePause() { cache_.OnGesturePause(); }

  BlockCacheStats stats() const { return cache_.stats(); }
  std::int64_t resident_bytes() const { return cache_.resident_bytes(); }
  bool in_scan_mode() const { return cache_.in_scan_mode(); }
  const BufferManagerConfig& config() const { return config_; }

  /// Stats of the fetch pipeline (zeros while no async provider was ever
  /// published).
  FetchQueueStats fetch_stats() const;
  /// Retries spent by inline fills (PinBlock on a slow tier, for reads no
  /// residency probe fronts) — they share the queue's retry policy.
  std::int64_t sync_fetch_retries() const {
    return sync_retries_.load(std::memory_order_relaxed);
  }
  /// Smoothed per-block cold-fetch wall (us) from the fetch pipeline; 0
  /// until a fetch settles. Lock-free — the
  /// touch server reads it per quantum to extend refinement deadlines by
  /// *measured* tier latency.
  std::int64_t ewma_block_fetch_us() const {
    const FetchQueue* queue = fetch_queue();
    return queue == nullptr ? 0 : queue->ewma_block_fetch_us();
  }

  /// Claimed-before-eviction score of prefetch warm-ups: claims /
  /// (claims + staged evictions) over the cache's lifetime; 1.0 while no
  /// warm-up has been claimed or dropped yet (no evidence against the
  /// configured horizon).
  double prefetch_claim_rate() const {
    const BlockCacheStats s = cache_.stats();
    const std::int64_t total =
        s.prefetch_staged_claims + s.prefetch_staged_evictions;
    return total == 0 ? 1.0
                      : static_cast<double>(s.prefetch_staged_claims) /
                            static_cast<double>(total);
  }

  /// Retracts still-queued demand fetches enqueued under `tag` (the touch
  /// server's session id) — see FetchQueue::CancelTagged. Returns the
  /// number of queued fetches dropped.
  std::size_t CancelFetches(std::uint64_t tag);
  /// Blocks until no async fetch is queued or in flight (tests).
  void WaitForFetches();

  /// Wires span tracing into the async fetch pipeline (see
  /// FetchQueue::set_trace_recorder). The queue is created lazily on the
  /// first async publish, so the recorder is remembered and handed over
  /// whenever creation happens; safe before or after. Null = off.
  void SetTraceRecorder(obs::TraceRecorder* recorder);

 private:
  class Source;

  /// What a column reads: immutable once published.
  struct Record {
    std::uint64_t owner = 0;
    std::shared_ptr<BlockProvider> provider;
    /// The column's minipage in a PAX provider's blocks (unused for
    /// single-column providers).
    std::size_t pax_column = 0;
  };

  /// One column's binding. Its sources share it for their whole life and
  /// load `current` on every use; a publish swaps `current`.
  struct Binding {
    /// The table whose column this is (empty for SourceFor names). Weak,
    /// like every provider's hold on a table: a binding never keeps a
    /// table's matrix alive, and a dead table's binding is never reused.
    std::weak_ptr<const storage::Table> table;
    /// Fixed at creation; every published provider must match it.
    BlockGeometry geometry;
    /// Every record the binding ever published, oldest first (guarded by
    /// mu_). A deque never moves its elements, so a record a reader
    /// loaded before a publish stays valid as long as the binding.
    std::deque<Record> published;
    std::atomic<const Record*> current{nullptr};
  };

  /// The binding of `table.column`, created on first use at the column's
  /// type and row count and the pool's rows_per_block; requires mu_.
  std::shared_ptr<Binding> BindingLocked(
      const std::shared_ptr<storage::Table>& table, std::size_t column);

  /// Makes `provider` what `binding` reads, under the owner it has where
  /// some binding reads it now, else a fresh one; requires mu_.
  void PublishLocked(Binding& binding, std::shared_ptr<BlockProvider> provider,
                     std::size_t column);

  /// The fetch queue, created on the first publish of an async()
  /// provider — a manager serving only in-memory tables (every private
  /// kernel SharedState) never pays the fetcher threads. Non-null iff
  /// created; readers load the atomic, the owner keeps it alive.
  FetchQueue* fetch_queue() const {
    return fetch_queue_ptr_.load(std::memory_order_acquire);
  }
  /// Creates the queue once (caller holds mu_ or tolerates call_once).
  void EnsureFetchQueue();

  BufferManagerConfig config_;
  BlockCache cache_;
  /// Fetchers deliver into cache_, so they must stop first: declared after
  /// cache_ (destroyed before it), shut down explicitly in ~BufferManager.
  std::once_flag fetch_queue_once_;
  std::unique_ptr<FetchQueue> fetch_queue_;
  std::atomic<FetchQueue*> fetch_queue_ptr_{nullptr};
  /// Recorder to hand the queue at (lazy) creation; see SetTraceRecorder.
  std::atomic<obs::TraceRecorder*> trace_recorder_{nullptr};
  std::atomic<std::int64_t> sync_retries_{0};
  std::mutex mu_;
  /// The current binding of each (table identity or null, name, column).
  /// An entry whose table is gone is dropped when the next binding is
  /// created; its sources keep the binding.
  std::map<std::tuple<const storage::Table*, std::string, std::size_t>,
           std::shared_ptr<Binding>>
      bindings_;
  std::uint64_t next_owner_ = 1;
};

}  // namespace dbtouch::cache

#endif  // DBTOUCH_CACHE_BUFFER_MANAGER_H_
