#include "cache/fetch_queue.h"

#include <algorithm>
#include <chrono>

#include "common/macros.h"
#include "obs/trace_recorder.h"

namespace dbtouch::cache {

namespace {

std::int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

bool IsTransientFetchError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kAborted:             // Lost/short response.
    case StatusCode::kResourceExhausted:   // Backpressure.
    case StatusCode::kDeadlineExceeded:    // Timeout.
      return true;
    default:
      return false;
  }
}

namespace {

/// Shared retry loop of FetchBlockWithRetry / FetchRangeWithRetry.
template <typename Fetch>
Result<std::vector<std::byte>> RetryFetch(const Fetch& fetch,
                                          const FetchQueueConfig& config,
                                          std::int64_t* retries_out,
                                          const std::atomic<bool>* abort) {
  int attempt = 0;
  for (;;) {
    Result<std::vector<std::byte>> payload = fetch();
    if (payload.ok() || !IsTransientFetchError(payload.status()) ||
        attempt >= config.max_retries) {
      return payload;
    }
    if (abort != nullptr && abort->load(std::memory_order_acquire)) {
      // Cancelled mid-flight: nobody is waiting for this read any more,
      // so return the attempt's outcome instead of burning the remaining
      // retry budget (and its backoff sleeps) on a dead session.
      return payload;
    }
    std::this_thread::sleep_for(
        std::chrono::microseconds(config.retry_backoff_us << attempt));
    ++attempt;
    if (retries_out != nullptr) {
      ++*retries_out;
    }
  }
}

}  // namespace

Result<std::vector<std::byte>> FetchBlockWithRetry(
    BlockProvider& provider, std::int64_t block,
    const FetchQueueConfig& config, std::int64_t* retries_out,
    const std::atomic<bool>* abort) {
  return RetryFetch([&] { return provider.Fetch(block); }, config,
                    retries_out, abort);
}

Result<std::vector<std::byte>> FetchRangeWithRetry(
    BlockProvider& provider, std::int64_t first_block, std::int64_t count,
    const FetchQueueConfig& config, std::int64_t* retries_out,
    const std::atomic<bool>* abort) {
  return RetryFetch([&] { return provider.ReadRange(first_block, count); },
                    config, retries_out, abort);
}

FetchQueue::FetchQueue(const FetchQueueConfig& config, Sink sink)
    : config_(config), sink_(std::move(sink)) {
  DBTOUCH_CHECK(config_.num_fetchers > 0);
  DBTOUCH_CHECK(sink_ != nullptr);
  fetchers_.reserve(static_cast<std::size_t>(config_.num_fetchers));
  for (int i = 0; i < config_.num_fetchers; ++i) {
    fetchers_.emplace_back([this] { FetcherLoop(); });
  }
}

FetchQueue::~FetchQueue() { Shutdown(); }

bool FetchQueue::Enqueue(const BlockKey& key,
                         std::shared_ptr<BlockProvider> provider,
                         std::int64_t block, FetchPriority priority,
                         Completion done, std::uint64_t tag) {
  Completion reject;  // Invoked outside the lock if the enqueue is refused.
  bool created = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      reject = std::move(done);
    } else {
      auto [it, inserted] = requests_.try_emplace(key);
      created = inserted;
      Request& request = it->second;
      if (inserted) {
        request.provider = std::move(provider);
        request.block = block;
        request.priority = priority;
        if (priority == FetchPriority::kDemand) {
          ++stats_.demand_enqueued;
          demand_queue_.push_back(key);
        } else {
          ++stats_.prefetch_enqueued;
          prefetch_queue_.push_back(key);
        }
      } else {
        ++stats_.coalesced;
        if (priority == FetchPriority::kDemand &&
            request.priority == FetchPriority::kPrefetch) {
          // A session is now parked on a block that was only a warm-up:
          // raise the priority in place. Still queued → move it to the
          // demand lane (its warm-up neighbours stay queued, and the
          // pop-time walk never joins them to a demand read); already in
          // flight → the raised priority is what the delivery reads (it
          // is re-read after the fetch), so the completion is staged with
          // demand protection either way.
          if (!request.in_flight) {
            request.priority = FetchPriority::kDemand;
            std::erase(prefetch_queue_, key);
            demand_queue_.push_back(key);
            ++stats_.upgraded;
          } else {
            request.priority = FetchPriority::kDemand;
          }
        }
      }
      if (done != nullptr) {
        request.waiters.push_back(Waiter{std::move(done), tag});
      }
    }
  }
  if (reject != nullptr) {
    reject(Status::Aborted("fetch queue shut down"));
    return false;
  }
  work_cv_.notify_one();
  return created;
}

std::size_t FetchQueue::EnqueueRange(std::uint64_t owner,
                                     std::shared_ptr<BlockProvider> provider,
                                     std::int64_t first_block,
                                     std::int64_t count) {
  DBTOUCH_CHECK(provider != nullptr);
  std::size_t created = 0;
  std::size_t runs = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return 0;
    }
    // Every fresh block becomes an ordinary prefetch request, pushed in
    // ascending order under this one lock: a fetcher that pops the first
    // block of a run finds the rest queued beside it and gathers them
    // into one ReadRange. Blocks with requests already on their way split
    // the range into runs.
    bool in_run = false;
    for (std::int64_t block = first_block; block < first_block + count;
         ++block) {
      const BlockKey key{owner, block};
      auto [it, inserted] = requests_.try_emplace(key);
      if (!inserted) {
        ++stats_.coalesced;  // Absorbed by whatever already covers it.
        in_run = false;
        continue;
      }
      it->second.provider = provider;
      it->second.block = block;
      it->second.priority = FetchPriority::kPrefetch;
      prefetch_queue_.push_back(key);
      ++stats_.prefetch_enqueued;
      ++created;
      if (!in_run) {
        ++runs;
        in_run = true;
      }
    }
  }
  // One wake per run, so separate runs can be read in parallel.
  if (runs > 1) {
    work_cv_.notify_all();
  } else if (runs == 1) {
    work_cv_.notify_one();
  }
  return created;
}

bool FetchQueue::PopLocked(BlockKey* key) {
  if (!demand_queue_.empty()) {
    *key = demand_queue_.front();
    demand_queue_.pop_front();
    return true;
  }
  if (!prefetch_queue_.empty()) {
    *key = prefetch_queue_.front();
    prefetch_queue_.pop_front();
    return true;
  }
  return false;
}

std::vector<BlockKey> FetchQueue::GatherRangeLocked(const BlockKey& key) {
  std::vector<BlockKey> keys{key};
  const auto head = requests_.find(key);
  DBTOUCH_CHECK(head != requests_.end());
  head->second.in_flight = true;
  if (config_.max_coalesce_blocks <= 1) {
    return keys;
  }
  const BlockProvider* provider = head->second.provider.get();
  const FetchPriority priority = head->second.priority;
  // Extend in both directions: a stall enqueues its band in ascending
  // order, but the fetcher may pop a middle block first when an earlier
  // one was already in flight. Only still-queued requests of the SAME
  // priority join — an in-flight neighbour is already being read (popping
  // it twice would double-deliver), and a warm-up must never ride a
  // demand range (it would inflate the read a session is parked on, and
  // demand pops must drain before prefetch work starts).
  const auto joinable = [&](std::int64_t block) -> bool {
    const auto it = requests_.find(BlockKey{key.owner, block});
    return it != requests_.end() && !it->second.in_flight &&
           it->second.priority == priority &&
           it->second.provider.get() == provider;
  };
  const auto take = [&](std::int64_t block) {
    const BlockKey neighbour{key.owner, block};
    Request& request = requests_.find(neighbour)->second;
    request.in_flight = true;
    std::erase(priority == FetchPriority::kDemand ? demand_queue_
                                                  : prefetch_queue_,
               neighbour);
    keys.push_back(neighbour);
  };
  std::int64_t lo = key.block;
  std::int64_t hi = key.block;
  while (static_cast<int>(keys.size()) < config_.max_coalesce_blocks) {
    if (joinable(hi + 1)) {
      take(++hi);
    } else if (joinable(lo - 1)) {
      take(--lo);
    } else {
      break;
    }
  }
  std::sort(keys.begin(), keys.end(),
            [](const BlockKey& a, const BlockKey& b) {
              return a.block < b.block;
            });
  return keys;
}

void FetchQueue::SettleFetch(std::unique_lock<std::mutex>& lock,
                             const std::vector<BlockKey>& keys,
                             Result<std::vector<std::byte>> payload,
                             std::int64_t retries, std::int64_t wall_us) {
  lock.lock();
  stats_.retries += retries;
  stats_.fetch_wall_us += wall_us;
  stats_.max_fetch_wall_us = std::max(stats_.max_fetch_wall_us, wall_us);
  const std::int64_t count = static_cast<std::int64_t>(keys.size());
  if (payload.ok()) {
    stats_.completed += count;
    stats_.bytes_fetched += static_cast<std::int64_t>(payload->size());
    if (count > 1) {
      ++stats_.ranged_reads;
      stats_.ranged_blocks += count;
    }
    // Fold this fetch into the per-block latency EWMA (a ranged read
    // amortises its wall over the blocks it covered). Successful fetches
    // only: a failure's wall measures the retry/backoff policy, not the
    // tier.
    const std::int64_t per_block = wall_us / std::max<std::int64_t>(count, 1);
    const std::int64_t prev = stats_.ewma_block_fetch_us;
    stats_.ewma_block_fetch_us =
        prev == 0 ? per_block : (prev * 4 + per_block) / 5;
    ewma_block_us_.store(stats_.ewma_block_fetch_us,
                         std::memory_order_relaxed);
  } else {
    stats_.failures += count;
  }

  struct Delivery {
    BlockKey key;
    std::vector<std::byte> bytes;
    FetchPriority priority = FetchPriority::kPrefetch;
    std::vector<Waiter> waiters;
  };
  std::vector<Delivery> deliveries;
  deliveries.reserve(keys.size());
  std::size_t offset = 0;
  for (const BlockKey& key : keys) {
    const auto it = requests_.find(key);
    DBTOUCH_CHECK(it != requests_.end());
    Delivery delivery;
    delivery.key = key;
    // Read the priority only now: a demand enqueue that coalesced while
    // the fetch was in flight upgraded it, and the delivery must carry
    // that (the cache shelters demand-staged blocks from warm-up churn).
    delivery.priority = it->second.priority;
    delivery.waiters = std::move(it->second.waiters);
    if (payload.ok() && count == 1) {
      // Single fetch: the payload is the block, whatever its size (the
      // cache does not second-guess providers).
      delivery.bytes = *std::move(payload);
    } else if (payload.ok()) {
      // The range payload is the blocks' bytes back to back in block
      // order; geometry gives each block's slice. ReadRange's contract
      // (BlockRowCount * width bytes per block) is what makes the split
      // well-defined.
      const BlockGeometry& geometry = it->second.provider->geometry();
      const std::size_t bytes =
          static_cast<std::size_t>(geometry.BlockRowCount(key.block)) *
          geometry.width();
      DBTOUCH_CHECK(offset + bytes <= payload->size());
      delivery.bytes.assign(payload->begin() + offset,
                            payload->begin() + offset + bytes);
      offset += bytes;
    }
    requests_.erase(it);
    deliveries.push_back(std::move(delivery));
  }
  const Status status = payload.ok() ? Status::OK() : payload.status();
  ++active_callbacks_;  // Covers the sink too: WaitIdle implies
                        // delivered payloads are in the cache.
  lock.unlock();
  // Deliver every block before waking any waiter: a waiter that re-probes
  // its whole stall on the completion signal must hit all of it.
  if (status.ok()) {
    for (Delivery& delivery : deliveries) {
      sink_(delivery.key, std::move(delivery.bytes), delivery.priority);
    }
  }
  for (const Delivery& delivery : deliveries) {
    for (const Waiter& waiter : delivery.waiters) {
      waiter.done(status);
    }
  }
  lock.lock();
  --active_callbacks_;
  if (requests_.empty() && active_callbacks_ == 0) {
    idle_cv_.notify_all();
  }
}

void FetchQueue::FetcherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    BlockKey key;
    while (!shutdown_ && !PopLocked(&key)) {
      work_cv_.wait(lock);
    }
    if (shutdown_) {
      return;
    }
    // Gather queued adjacent requests into one ranged read (the popped
    // key rides alone when it has no queued neighbours). Demand pops
    // drain before any prefetch is even considered, so a demand fault
    // always preempts a coalesced prefetch range.
    const std::vector<BlockKey> keys = GatherRangeLocked(key);
    std::shared_ptr<BlockProvider> provider;
    // One cancellation latch covers the whole fetch: CancelTagged flips
    // it when every covered request has lost its last waiter.
    auto abort = std::make_shared<std::atomic<bool>>(false);
    for (const BlockKey& k : keys) {
      const auto it = requests_.find(k);
      DBTOUCH_CHECK(it != requests_.end());
      it->second.abort = abort;
      provider = it->second.provider;
      // Iterators must not outlive this scope: concurrent Enqueues
      // during the unlocked fetch below may rehash the map, invalidating
      // every iterator — the requests are re-found after relocking.
    }
    const std::int64_t first_block = keys.front().block;
    const std::int64_t count = static_cast<std::int64_t>(keys.size());

    lock.unlock();
    obs::TraceRecorder* trace = trace_.load(std::memory_order_acquire);
    const std::int64_t trace_owner =
        static_cast<std::int64_t>(keys.front().owner);
    if (trace != nullptr) {
      trace->Record(obs::SpanStage::kFetchStarted, 0, trace_owner,
                    first_block, count);
    }
    std::int64_t retries = 0;
    const std::int64_t t0 = NowUs();
    Result<std::vector<std::byte>> payload =
        count == 1 ? FetchBlockWithRetry(*provider, first_block, config_,
                                         &retries, abort.get())
                   : FetchRangeWithRetry(*provider, first_block, count,
                                         config_, &retries, abort.get());
    const std::int64_t wall = NowUs() - t0;
    if (trace != nullptr) {
      trace->Record(obs::SpanStage::kFetchDone, 0, trace_owner,
                    payload.ok() ? 1 : 0, wall);
    }
    SettleFetch(lock, keys, std::move(payload), retries, wall);
  }
}

std::size_t FetchQueue::CancelTagged(std::uint64_t tag) {
  std::vector<Waiter> cancelled;
  std::size_t dropped = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    // In-flight fetches that may deserve an abort: decided after the
    // retraction pass, once every request's surviving waiters are known.
    std::vector<std::shared_ptr<std::atomic<bool>>> candidates;
    for (auto it = requests_.begin(); it != requests_.end();) {
      Request& request = it->second;
      const std::size_t before = request.waiters.size();
      std::erase_if(request.waiters, [&](Waiter& waiter) {
        if (waiter.tag != tag) {
          return false;
        }
        cancelled.push_back(std::move(waiter));
        return true;
      });
      const bool retracted = request.waiters.size() < before;
      if (request.in_flight) {
        // Already being read: the fetch finishes its current attempt and
        // settles (deliveries balance; the retracted waiters were failed
        // here instead). If this retraction left the request — a demand
        // read nobody else shares — waiterless, its fetch is an abort
        // candidate: no further retries for a closed session.
        if (retracted && request.waiters.empty() &&
            request.priority == FetchPriority::kDemand &&
            request.abort != nullptr) {
          candidates.push_back(request.abort);
        }
        ++it;
        continue;
      }
      if (retracted && request.waiters.empty() &&
          request.priority == FetchPriority::kDemand) {
        // Nobody is left waiting on this demand read — fetching it would
        // only spend cold-tier bandwidth on a closed session. (Waiterless
        // prefetches stay: they are deliberate fire-and-forget warm-ups
        // of the shared pool.)
        std::erase(demand_queue_, it->first);
        it = requests_.erase(it);
        ++stats_.cancelled;
        ++dropped;
      } else {
        ++it;
      }
    }
    // Abort only fetches no request of which still has a waiter or is a
    // shared warm-up: a ranged read another session is parked on — or
    // that warms the pool — runs its full retry budget as before.
    for (const auto& abort : candidates) {
      bool still_wanted = false;
      for (const auto& [k, request] : requests_) {
        if (request.abort == abort &&
            (!request.waiters.empty() ||
             request.priority == FetchPriority::kPrefetch)) {
          still_wanted = true;
          break;
        }
      }
      if (!still_wanted &&
          !abort->exchange(true, std::memory_order_acq_rel)) {
        ++stats_.aborted;
      }
    }
    if (requests_.empty() && active_callbacks_ == 0) {
      idle_cv_.notify_all();
    }
  }
  for (const Waiter& waiter : cancelled) {
    waiter.done(Status::Aborted("fetch cancelled: session closed"));
  }
  return dropped;
}

std::size_t FetchQueue::outstanding() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return requests_.size();
}

void FetchQueue::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    return shutdown_ || (requests_.empty() && active_callbacks_ == 0);
  });
}

void FetchQueue::Shutdown() {
  std::vector<Completion> orphans;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return;
    }
    shutdown_ = true;
    // Unstarted requests will never run: release their waiters and drop
    // them, so outstanding() converges to zero once in-flight fetches —
    // which complete on their fetcher before it exits — drain.
    for (auto it = requests_.begin(); it != requests_.end();) {
      if (!it->second.in_flight) {
        for (Waiter& waiter : it->second.waiters) {
          orphans.push_back(std::move(waiter.done));
        }
        it = requests_.erase(it);
      } else {
        ++it;
      }
    }
    demand_queue_.clear();
    prefetch_queue_.clear();
  }
  work_cv_.notify_all();
  idle_cv_.notify_all();
  for (const Completion& orphan : orphans) {
    orphan(Status::Aborted("fetch queue shut down"));
  }
  for (std::thread& fetcher : fetchers_) {
    fetcher.join();
  }
  fetchers_.clear();
}

FetchQueueStats FetchQueue::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace dbtouch::cache
