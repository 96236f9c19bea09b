// FetchQueue: the asynchronous block-fetch engine behind the BufferManager.
//
// PR 2 left one latency cliff on the read path: a cold-tier fault ran the
// provider's Fetch synchronously under the shard lock, so one slow remote
// read could stall a worker — and with it every session that worker would
// otherwise serve. The FetchQueue moves those reads onto a small fetcher
// thread pool:
//
//   TryPinBlock (miss) --> Enqueue(demand) ----+
//   slide path --> EnqueueRange(prefetch) -----+--> fetcher threads
//                                              |      pop + gather queued
//                                              |      adjacent blocks,
//                                              |      provider->ReadRange
//                                              |      (bounded retries,
//                                              |       exponential backoff)
//                                              v
//                                      deliver(key, payload) --> BlockCache
//                                      completion callbacks  --> waiters
//                                                               (scheduler
//                                                                unparks)
//
// Priorities: demand fetches (a session is parked on the answer) always
// pop before prefetch warm-ups (the extrapolated slide path); enqueueing a
// demand request for a block already queued at prefetch priority upgrades
// it in place. Requests for one block coalesce into a single fetch no
// matter how many waiters pile on. Reads are batched at pop time: a
// fetcher gathers the queued same-priority neighbours of the block it
// popped into one provider ReadRange.
//
// Failure contract: a fetch error is data, not an invariant violation.
// Transient errors (see IsTransientFetchError) are retried up to
// max_retries times with exponential backoff; the final status — OK or the
// last error — is handed to every waiter. Waiters are invoked on fetcher
// threads and must be cheap and non-blocking (the touch server's callback
// just unparks the session).

#ifndef DBTOUCH_CACHE_FETCH_QUEUE_H_
#define DBTOUCH_CACHE_FETCH_QUEUE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cache/block_cache.h"
#include "cache/block_provider.h"
#include "common/result.h"
#include "common/status.h"

namespace dbtouch::obs {
class TraceRecorder;
}  // namespace dbtouch::obs

namespace dbtouch::cache {

enum class FetchPriority : std::uint8_t {
  kPrefetch = 0,  // Warm-up along the extrapolated slide path.
  kDemand = 1,    // A quantum is suspended on this block.
};

struct FetchQueueConfig {
  /// Fetcher threads. Cold-tier reads are latency- not CPU-bound, so a
  /// couple of threads overlap many outstanding fetches.
  int num_fetchers = 2;
  /// Retries after the first attempt for transient errors.
  int max_retries = 3;
  /// Backoff before retry k is backoff_us << k (exponential).
  std::int64_t retry_backoff_us = 200;
  /// Batched fetches: when the popped request has queued neighbours (same
  /// owner and priority, adjacent block indices, not yet in flight), up to
  /// this many blocks are merged into one provider ReadRange — a cold
  /// summary band or a warm-up run costs one round trip instead of N.
  /// <= 1 disables coalescing.
  int max_coalesce_blocks = 16;
};

struct FetchQueueStats {
  std::int64_t demand_enqueued = 0;
  std::int64_t prefetch_enqueued = 0;
  /// Enqueues absorbed by an already-queued/in-flight fetch of the block.
  std::int64_t coalesced = 0;
  /// Prefetch requests re-prioritised by a later demand enqueue.
  std::int64_t upgraded = 0;
  std::int64_t completed = 0;
  std::int64_t retries = 0;
  /// Fetches that exhausted retries (or hit a permanent error).
  std::int64_t failures = 0;
  /// Queued-not-in-flight demand requests dropped by CancelTagged (a
  /// session closed before its fetch started).
  std::int64_t cancelled = 0;
  /// In-flight fetches whose retry loop CancelTagged cut short: the
  /// session parked on them closed, so the read was capped at the attempt
  /// already running instead of a full retry budget.
  std::int64_t aborted = 0;
  /// Coalesced provider calls: ReadRange invocations spanning >= 2
  /// adjacent blocks, and the blocks they covered. completed counts every
  /// block, so (completed - ranged_blocks + ranged_reads) is the number
  /// of provider round trips actually paid.
  std::int64_t ranged_reads = 0;
  std::int64_t ranged_blocks = 0;
  /// Payload bytes delivered by the fetchers (bytes faulted in from the
  /// cold tier — disk or remote).
  std::int64_t bytes_fetched = 0;
  /// Wall time inside provider fetches, including retries + backoff.
  std::int64_t fetch_wall_us = 0;
  std::int64_t max_fetch_wall_us = 0;
  /// Smoothed per-block fetch wall (us) — the live estimate of what one
  /// cold block costs on this tier right now. 0 until a fetch settles.
  /// The scheduler extends deadlines of refinement quanta by exactly this
  /// measured latency, never by a guess.
  std::int64_t ewma_block_fetch_us = 0;
};

/// True for error codes worth retrying: the transport may deliver on the
/// next attempt (lost response, backpressure, timeout). Invariant-shaped
/// errors (OutOfRange, InvalidArgument, ...) are permanent.
bool IsTransientFetchError(const Status& status);

/// Fetches `block` from `provider` with the queue's retry policy, inline
/// on the calling thread — the synchronous fallback path shares one
/// definition of "retryable read" with the async queue. `retries_out`
/// (optional) accumulates the retries spent. `abort` (optional) is the
/// cancellation latch: once it reads true, the loop returns the current
/// attempt's outcome instead of spending further retries — a cancelled
/// session's read costs at most one attempt, not one full fetch.
Result<std::vector<std::byte>> FetchBlockWithRetry(
    BlockProvider& provider, std::int64_t block,
    const FetchQueueConfig& config, std::int64_t* retries_out = nullptr,
    const std::atomic<bool>* abort = nullptr);

/// Ranged sibling of FetchBlockWithRetry: one provider ReadRange over
/// [first_block, first_block + count) under the same retry policy.
Result<std::vector<std::byte>> FetchRangeWithRetry(
    BlockProvider& provider, std::int64_t first_block, std::int64_t count,
    const FetchQueueConfig& config, std::int64_t* retries_out = nullptr,
    const std::atomic<bool>* abort = nullptr);

class FetchQueue {
 public:
  /// Invoked with the fetch's final status after the payload (if any) was
  /// delivered to the sink — so a waiter that immediately retries its pin
  /// is guaranteed to hit.
  using Completion = std::function<void(const Status&)>;
  /// Receives successfully fetched payloads (the BufferManager's insert
  /// into its BlockCache) with the priority the fetch was served at, so
  /// the cache can shelter demand completions — a session is parked on
  /// those — from warm-up churn. Runs on a fetcher thread.
  using Sink = std::function<void(
      const BlockKey&, std::vector<std::byte> payload, FetchPriority)>;

  FetchQueue(const FetchQueueConfig& config, Sink sink);
  ~FetchQueue();

  FetchQueue(const FetchQueue&) = delete;
  FetchQueue& operator=(const FetchQueue&) = delete;

  /// Requests `block` of `provider`, identified in the cache as `key`.
  /// Coalesces with any queued/in-flight fetch of the same key (a demand
  /// request upgrades a still-queued prefetch). `done` may be null (fire
  /// and forget — the prefetch path). `tag` names the waiter's owner (the
  /// touch server passes the session id) so CancelTagged can retract its
  /// tickets; 0 = untagged. Returns true iff a NEW request was created —
  /// false for coalesced joins and shutdown rejections — so callers
  /// budgeting fetches don't spend their budget on no-ops.
  bool Enqueue(const BlockKey& key, std::shared_ptr<BlockProvider> provider,
               std::int64_t block, FetchPriority priority, Completion done,
               std::uint64_t tag = 0);

  /// Enqueues blocks [first_block, first_block + count) of `owner` as
  /// prefetch warm-ups: every block with no existing request becomes an
  /// ordinary prefetch request, all under one lock, so a fetcher pops a
  /// run of them whole (pop-time coalescing reads it as one ReadRange of
  /// up to max_coalesce_blocks) or not at all. Blocks already queued or in
  /// flight are skipped (counted as coalesced). A later demand Enqueue for
  /// a still-queued block moves just that block to the demand lane, and
  /// the pop-time walk never joins neighbours of another priority, so
  /// demand never waits on (or inflates) a warm-up read. Fire-and-forget;
  /// returns the number of blocks actually enqueued.
  std::size_t EnqueueRange(std::uint64_t owner,
                           std::shared_ptr<BlockProvider> provider,
                           std::int64_t first_block, std::int64_t count);

  /// Retracts `tag`'s tickets (a session closed). Waiters of still-queued
  /// requests fail with Aborted, and a demand request left with no
  /// waiters is dropped entirely, so closed sessions stop consuming
  /// cold-tier bandwidth. An IN-FLIGHT fetch whose every covered request
  /// is left waiterless demand gets its abort latch set: the read caps at
  /// the attempt already running instead of a full retry budget (counted
  /// in stats().aborted); fetches other sessions still wait on — and
  /// shared warm-ups — run to completion. Returns the number of queued
  /// requests dropped.
  std::size_t CancelTagged(std::uint64_t tag);

  /// Queued + in-flight fetches.
  std::size_t outstanding() const;

  /// Blocks until no fetch is queued or in flight (tests).
  void WaitIdle();

  /// Stops the fetchers. Queued-but-unstarted requests fail their waiters
  /// with Aborted; in-flight fetches finish first. Idempotent.
  void Shutdown();

  FetchQueueStats stats() const;

  /// Lock-free read of the smoothed per-block fetch wall (us); 0 until a
  /// fetch settles. Safe from the worker hot path.
  std::int64_t ewma_block_fetch_us() const {
    return ewma_block_us_.load(std::memory_order_relaxed);
  }

  /// Trace hook: each provider read the fetchers issue is recorded as a
  /// kFetchStarted/kFetchDone span pair (session field = block owner tag,
  /// a/b = first block + count, then ok + wall micros). Atomic because the
  /// recorder may be wired after the fetcher threads are already running;
  /// null = off.
  void set_trace_recorder(obs::TraceRecorder* recorder) {
    trace_.store(recorder, std::memory_order_release);
  }

 private:
  struct Waiter {
    Completion done;
    std::uint64_t tag = 0;
  };

  struct Request {
    std::shared_ptr<BlockProvider> provider;
    std::int64_t block = 0;
    FetchPriority priority = FetchPriority::kPrefetch;
    bool in_flight = false;
    /// Cancellation latch shared by every request of one in-flight fetch;
    /// set by CancelTagged, read between retry attempts.
    std::shared_ptr<std::atomic<bool>> abort;
    std::vector<Waiter> waiters;
  };

  void FetcherLoop();
  /// Pops the next runnable key (demand first) or returns false.
  bool PopLocked(BlockKey* key);
  /// Extends the popped `key` with queued adjacent same-owner requests
  /// (same provider and priority, consecutive block indices, not in
  /// flight), up to max_coalesce_blocks, removing them from their lanes
  /// and marking every gathered request in flight. Returns the keys in
  /// ascending block order; size 1 = no coalescing.
  std::vector<BlockKey> GatherRangeLocked(const BlockKey& key);
  /// Completes `keys` (all in flight, ascending adjacent blocks) with the
  /// outcome of one fetch: on success `payload` is split per block and
  /// delivered through the sink before any waiter runs. Reacquires `lock`
  /// before returning.
  void SettleFetch(std::unique_lock<std::mutex>& lock,
                   const std::vector<BlockKey>& keys,
                   Result<std::vector<std::byte>> payload,
                   std::int64_t retries, std::int64_t wall_us);

  FetchQueueConfig config_;
  Sink sink_;
  std::atomic<obs::TraceRecorder*> trace_{nullptr};

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<BlockKey> demand_queue_;
  std::deque<BlockKey> prefetch_queue_;
  std::unordered_map<BlockKey, Request, BlockKeyHash> requests_;
  FetchQueueStats stats_;
  /// Mirror of stats_.ewma_block_fetch_us readable without mu_ (updated
  /// under mu_ in SettleFetch; alpha 0.2 favours stability over reaction).
  std::atomic<std::int64_t> ewma_block_us_{0};
  /// Fetchers currently running waiter callbacks outside the lock;
  /// WaitIdle counts them as outstanding work.
  int active_callbacks_ = 0;
  bool shutdown_ = false;

  std::vector<std::thread> fetchers_;
};

}  // namespace dbtouch::cache

#endif  // DBTOUCH_CACHE_FETCH_QUEUE_H_
