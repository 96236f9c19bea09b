// Unit tests for the payload-holding gesture-aware block cache, the
// buffer manager with its pluggable block providers, and the hash-table
// cache.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cache/block_cache.h"
#include "cache/block_provider.h"
#include "cache/buffer_manager.h"
#include "cache/fetch_queue.h"
#include "cache/hash_table_cache.h"
#include "remote/remote_store.h"
#include "storage/column.h"
#include "storage/datagen.h"
#include "storage/paged_column.h"
#include "storage/table.h"

namespace dbtouch::cache {
namespace {

using storage::Column;
using storage::RowId;

constexpr std::int64_t kBlockBytes = 64;

/// Deterministic payload so hits can be checked byte-for-byte.
std::vector<std::byte> PayloadFor(std::int64_t block,
                                  std::int64_t bytes = kBlockBytes) {
  std::vector<std::byte> out(static_cast<std::size_t>(bytes));
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::byte>((block * 131 + static_cast<std::int64_t>(i)) & 0xff);
  }
  return out;
}

BlockCache::Config SmallCache(bool gesture_aware,
                              std::int64_t capacity_blocks = 4) {
  BlockCache::Config config;
  config.capacity_bytes = capacity_blocks * kBlockBytes;
  config.gesture_aware = gesture_aware;
  config.scan_run_length = 4;
  return config;
}

/// Pin + immediate unpin — the old metadata cache's Access(), with bytes.
BlockCache::Pinned Touch(BlockCache& cache, std::int64_t block, RowId row) {
  auto pinned = cache.Pin(BlockKey{0, block}, row,
                          [block] { return PayloadFor(block); });
  EXPECT_TRUE(pinned.ok());
  cache.Unpin(BlockKey{0, block});
  return *pinned;
}

bool Resident(const BlockCache& cache, std::int64_t block) {
  return cache.Contains(BlockKey{0, block});
}

TEST(BlockCacheTest, MissThenHitServesSamePayload) {
  BlockCache cache(SmallCache(false));
  const auto miss = Touch(cache, 1, 100);
  EXPECT_FALSE(miss.hit);
  EXPECT_TRUE(miss.retained);
  auto hit = cache.Pin(BlockKey{0, 1}, 101,
                       [] { return PayloadFor(99); });  // Filler unused.
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->hit);
  const auto expected = PayloadFor(1);
  EXPECT_EQ(hit->size, expected.size());
  EXPECT_EQ(std::memcmp(hit->data, expected.data(), expected.size()), 0);
  cache.Unpin(BlockKey{0, 1});
  EXPECT_EQ(cache.stats().lookups, 2);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().faults, 1);
}

TEST(BlockCacheTest, LruEvictsOldest) {
  BlockCache cache(SmallCache(false));
  for (std::int64_t b = 0; b < 5; ++b) {
    Touch(cache, b, b);  // Blocks 0..4; capacity 4 blocks evicts block 0.
  }
  EXPECT_FALSE(Resident(cache, 0));
  EXPECT_TRUE(Resident(cache, 4));
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_LE(cache.resident_bytes(), cache.config().capacity_bytes);
}

TEST(BlockCacheTest, TouchRefreshesLruPosition) {
  BlockCache cache(SmallCache(false));
  for (std::int64_t b = 0; b < 4; ++b) {
    Touch(cache, b, b * 10);
  }
  Touch(cache, 0, 100);  // Refresh block 0.
  Touch(cache, 9, 200);  // Evicts block 1, not 0.
  EXPECT_TRUE(Resident(cache, 0));
  EXPECT_FALSE(Resident(cache, 1));
}

TEST(BlockCacheTest, SteadyScanBypassesAdmission) {
  BlockCache cache(SmallCache(true));
  // A long one-directional slide: rows strictly increasing.
  for (std::int64_t i = 0; i < 20; ++i) {
    Touch(cache, i, i * 1000);
  }
  EXPECT_TRUE(cache.in_scan_mode());
  EXPECT_GT(cache.stats().bypasses, 0);
  // The cache did not fill with scan blocks.
  EXPECT_LE(cache.size(), 5);
}

TEST(BlockCacheTest, ReversalReenablesAdmission) {
  BlockCache cache(SmallCache(true));
  for (std::int64_t i = 0; i < 20; ++i) {
    Touch(cache, i, i * 1000);
  }
  ASSERT_TRUE(cache.in_scan_mode());
  // Reverse direction: user is re-examining.
  Touch(cache, 19, 18'500);
  EXPECT_FALSE(cache.in_scan_mode());
  Touch(cache, 18, 18'000);
  EXPECT_TRUE(Resident(cache, 18));
}

TEST(BlockCacheTest, PauseReenablesAdmission) {
  BlockCache cache(SmallCache(true));
  for (std::int64_t i = 0; i < 20; ++i) {
    Touch(cache, i, i * 1000);
  }
  ASSERT_TRUE(cache.in_scan_mode());
  cache.OnGesturePause();
  EXPECT_FALSE(cache.in_scan_mode());
}

TEST(BlockCacheTest, GestureAwarePolicyRetainsRegionAcrossScan) {
  // Workload: the user studies a small region (ping-pong), then a long
  // scan passes through, then they return to the region. Plain LRU admits
  // every scan block and evicts the region; the gesture-aware policy
  // bypasses the scan so the region survives.
  const auto run = [](bool aware) {
    BlockCache::Config config;
    config.capacity_bytes = 10 * kBlockBytes;
    config.gesture_aware = aware;
    config.scan_run_length = 3;
    BlockCache cache(config);
    // Phase 1: establish interest in blocks 50..52 (alternating
    // direction keeps admission on).
    for (int round = 0; round < 3; ++round) {
      for (std::int64_t b = 50; b < 53; ++b) {
        Touch(cache, b, b * 1000 + round);
      }
      for (std::int64_t b = 52; b >= 50; --b) {
        Touch(cache, b, b * 1000 - round);
      }
    }
    // Phase 2: a long one-directional scan over 40 other blocks.
    for (std::int64_t i = 0; i < 40; ++i) {
      Touch(cache, i, i * 1000);
    }
    int retained = 0;
    for (std::int64_t b = 50; b < 53; ++b) {
      retained += Resident(cache, b) ? 1 : 0;
    }
    return retained;
  };
  EXPECT_EQ(run(true), 3);   // Scan bypassed: region intact.
  EXPECT_EQ(run(false), 0);  // LRU: scan evicted everything.
}

TEST(BlockCacheTest, EvictionSkipsPinnedBlocks) {
  BlockCache cache(SmallCache(false, /*capacity_blocks=*/2));
  auto a = cache.Pin(BlockKey{0, 1}, 0, [] { return PayloadFor(1); });
  auto b = cache.Pin(BlockKey{0, 2}, 1, [] { return PayloadFor(2); });
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->retained && b->retained);

  // Budget full of pinned blocks: the next pin must not evict them — it
  // is served transient and the budget holds.
  auto c = cache.Pin(BlockKey{0, 3}, 2, [] { return PayloadFor(3); });
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(c->retained);
  EXPECT_EQ(cache.stats().budget_rejections, 1);
  EXPECT_EQ(cache.stats().evictions, 0);
  EXPECT_LE(cache.resident_bytes(), cache.config().capacity_bytes);
  EXPECT_TRUE(Resident(cache, 1));
  EXPECT_TRUE(Resident(cache, 2));

  // The transient block frees with its last pin.
  cache.Unpin(BlockKey{0, 3});
  EXPECT_FALSE(Resident(cache, 3));

  // Once a pin drops, that block is evictable again.
  cache.Unpin(BlockKey{0, 1});
  auto d = cache.Pin(BlockKey{0, 4}, 3, [] { return PayloadFor(4); });
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->retained);
  EXPECT_FALSE(Resident(cache, 1));  // Evicted (unpinned LRU victim).
  EXPECT_TRUE(Resident(cache, 2));   // Still pinned, still resident.
  cache.Unpin(BlockKey{0, 2});
  cache.Unpin(BlockKey{0, 4});
}

TEST(BlockCacheTest, PinnedPayloadStableUnderEvictionPressure) {
  BlockCache cache(SmallCache(false, /*capacity_blocks=*/3));
  auto pinned = cache.Pin(BlockKey{0, 77}, 0, [] { return PayloadFor(77); });
  ASSERT_TRUE(pinned.ok());
  // Churn far more blocks through the cache than the budget holds.
  for (std::int64_t b = 0; b < 64; ++b) {
    Touch(cache, b, b);
  }
  const auto expected = PayloadFor(77);
  EXPECT_EQ(std::memcmp(pinned->data, expected.data(), expected.size()), 0);
  cache.Unpin(BlockKey{0, 77});
}

TEST(BlockCacheTest, ResidentBytesNeverExceedBudget) {
  BlockCache cache(SmallCache(false, /*capacity_blocks=*/4));
  for (std::int64_t i = 0; i < 500; ++i) {
    Touch(cache, (i * 7919) % 97, i);
    ASSERT_LE(cache.resident_bytes(), cache.config().capacity_bytes);
  }
  EXPECT_LE(cache.stats().peak_resident_bytes,
            cache.config().capacity_bytes);
}

TEST(BlockCacheTest, OversizedBlockServedTransient) {
  BlockCache::Config config;
  config.capacity_bytes = 100;  // Smaller than one block.
  config.gesture_aware = false;
  BlockCache cache(config);
  auto pinned = cache.Pin(BlockKey{0, 5}, 0,
                          [] { return PayloadFor(5, 150); });
  ASSERT_TRUE(pinned.ok());
  EXPECT_FALSE(pinned->retained);
  EXPECT_EQ(pinned->size, 150u);
  EXPECT_EQ(cache.resident_bytes(), 0);
  cache.Unpin(BlockKey{0, 5});
  EXPECT_FALSE(Resident(cache, 5));
}

// ---- BufferManager over block providers -----------------------------------

std::shared_ptr<storage::Table> SequenceTable(std::int64_t rows) {
  std::vector<Column> cols;
  cols.push_back(storage::GenSequenceInt64("v", rows, 0, 1));
  auto table = storage::Table::FromColumns("t", std::move(cols));
  EXPECT_TRUE(table.ok());
  return *table;
}

TEST(BufferManagerTest, TableProviderReadsAreByteIdenticalToViews) {
  const std::int64_t rows = 257;  // Two full blocks + a 57-row tail.
  auto table = SequenceTable(rows);
  BufferManagerConfig config;
  config.rows_per_block = 100;
  BufferManager manager(config);
  auto source = manager.ColumnSource(table, 0);
  ASSERT_TRUE(source.ok());
  EXPECT_EQ((*source)->num_blocks(), 3);
  EXPECT_EQ((*source)->BlockRowCount(2), 57);

  const storage::ColumnView view = table->ColumnViewAt(0);
  storage::PagedColumnCursor cursor(*source);
  for (RowId r = 0; r < rows; ++r) {
    EXPECT_EQ(cursor.GetAsDouble(r), view.GetAsDouble(r)) << "row " << r;
  }
  EXPECT_EQ(manager.stats().faults, 3);
}

TEST(BufferManagerTest, StringColumnsDecodeThroughDictionary) {
  std::vector<Column> cols;
  cols.push_back(Column::FromStrings("s", {"ursa", "lyra", "ursa", "vega"}));
  auto table = storage::Table::FromColumns("stars", std::move(cols));
  ASSERT_TRUE(table.ok());
  BufferManagerConfig config;
  config.rows_per_block = 2;
  BufferManager manager(config);
  auto source = manager.ColumnSource(*table, 0);
  ASSERT_TRUE(source.ok());
  storage::PagedColumnCursor cursor(*source);
  EXPECT_EQ(cursor.GetValue(0).AsString(), "ursa");
  EXPECT_EQ(cursor.GetValue(3).AsString(), "vega");
}

TEST(BufferManagerTest, ScanBeyondBudgetStaysBounded) {
  const std::int64_t rows = 10'000;  // 80 KB of int64.
  auto table = SequenceTable(rows);
  BufferManagerConfig config;
  config.rows_per_block = 512;  // 4 KB blocks.
  config.budget_bytes = 16 << 10;
  config.gesture_aware = false;  // Plain LRU: every block admitted.
  BufferManager manager(config);
  auto source = manager.ColumnSource(table, 0);
  ASSERT_TRUE(source.ok());
  storage::PagedColumnCursor cursor(*source);
  double sum = 0.0;
  for (RowId r = 0; r < rows; ++r) {
    sum += cursor.GetAsDouble(r);
    ASSERT_LE(manager.resident_bytes(), config.budget_bytes);
  }
  EXPECT_EQ(sum, static_cast<double>(rows - 1) * rows / 2);
  const BlockCacheStats stats = manager.stats();
  EXPECT_EQ(stats.faults, (*source)->num_blocks());
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(stats.peak_resident_bytes, config.budget_bytes);
}

TEST(BufferManagerTest, WarmRegionHitsWithoutRefaulting) {
  auto table = SequenceTable(4'096);
  BufferManagerConfig config;
  config.rows_per_block = 256;
  config.gesture_aware = false;
  BufferManager manager(config);
  auto source = manager.ColumnSource(table, 0);
  ASSERT_TRUE(source.ok());
  storage::PagedColumnCursor cursor(*source);
  for (RowId r = 1'000; r < 2'000; ++r) {
    cursor.GetAsDouble(r);
  }
  const std::int64_t cold_faults = manager.stats().faults;
  cursor.ReleasePin();
  for (RowId r = 1'000; r < 2'000; ++r) {
    cursor.GetAsDouble(r);
  }
  EXPECT_EQ(manager.stats().faults, cold_faults);  // All warm hits.
  EXPECT_GT(manager.stats().hits, 0);
}

// ---- Async fetch: TryPin / Insert / FetchQueue ------------------------------

TEST(BlockCacheTest, TryPinMissesWithoutFillingAndHitsAfterInsert) {
  BlockCache cache(SmallCache(false));
  const BlockKey key{0, 7};
  EXPECT_FALSE(cache.TryPin(key, -1).has_value());
  EXPECT_EQ(cache.stats().would_block, 1);
  EXPECT_FALSE(cache.Contains(key));  // A probe materialises nothing.

  cache.Insert(key, PayloadFor(7));
  EXPECT_EQ(cache.stats().staged_blocks, 1);
  const auto pinned = cache.TryPin(key, -1);
  ASSERT_TRUE(pinned.has_value());
  EXPECT_TRUE(pinned->hit);
  // The claim promoted the staged payload into the retained set.
  EXPECT_TRUE(pinned->retained);
  EXPECT_EQ(cache.stats().staged_blocks, 0);
  EXPECT_EQ(std::memcmp(pinned->data, PayloadFor(7).data(), kBlockBytes),
            0);
  cache.Unpin(key);
  EXPECT_TRUE(cache.Contains(key));  // Retained past the last unpin.
}

TEST(BlockCacheTest, InsertIsDroppedWhenPayloadAlreadyPresent) {
  BlockCache cache(SmallCache(false));
  Touch(cache, 3, -1);  // Synchronous fill wins the race.
  cache.Insert(BlockKey{0, 3}, PayloadFor(99));
  const auto pinned = cache.TryPin(BlockKey{0, 3}, -1);
  ASSERT_TRUE(pinned.has_value());
  // The original payload survived; the late completion was discarded.
  EXPECT_EQ(std::memcmp(pinned->data, PayloadFor(3).data(), kBlockBytes), 0);
  EXPECT_EQ(cache.stats().insert_duplicates, 1);
  cache.Unpin(BlockKey{0, 3});
}

TEST(BlockCacheTest, UnclaimedStagedBlocksAreBoundedByTheCap) {
  BlockCache::Config config = SmallCache(false);
  config.staged_cap_bytes = 2 * kBlockBytes;
  BlockCache cache(config);
  cache.Insert(BlockKey{0, 1}, PayloadFor(1));
  cache.Insert(BlockKey{0, 2}, PayloadFor(2));
  cache.Insert(BlockKey{0, 3}, PayloadFor(3));  // Evicts oldest staged (1).
  const BlockCacheStats stats = cache.stats();
  EXPECT_EQ(stats.staged_blocks, 2);
  EXPECT_LE(stats.staged_bytes, config.staged_cap_bytes);
  EXPECT_EQ(stats.staged_evictions, 1);
  EXPECT_FALSE(cache.Contains(BlockKey{0, 1}));
  EXPECT_TRUE(cache.Contains(BlockKey{0, 2}));
  EXPECT_TRUE(cache.Contains(BlockKey{0, 3}));
}

/// Provider whose fetches can be held at a gate, recording fetch order.
/// Geometry is payload-consistent: kBlockBytes of int64 per block, so the
/// queue's ranged split sees exactly the sizes the geometry promises.
class GatedProvider final : public BlockProvider {
 public:
  GatedProvider() {
    geometry_.type = storage::DataType::kInt64;
    geometry_.row_count = 1'000'000;
    geometry_.rows_per_block = kBlockBytes / 8;
  }

  const BlockGeometry& geometry() const override { return geometry_; }
  bool async() const override { return true; }

  Result<std::vector<std::byte>> Fetch(std::int64_t block) override {
    std::unique_lock<std::mutex> lock(mu_);
    ++entered_;
    entered_cv_.notify_all();
    gate_cv_.wait_for(lock, std::chrono::seconds(10),
                      [this] { return open_; });
    order_.push_back(block);
    return PayloadFor(block);
  }

  void OpenGate() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    gate_cv_.notify_all();
  }
  void AwaitFetchEntered(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    entered_cv_.wait_for(lock, std::chrono::seconds(10),
                         [&] { return entered_ >= n; });
  }
  std::vector<std::int64_t> order() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }

 private:
  BlockGeometry geometry_;
  mutable std::mutex mu_;
  std::condition_variable gate_cv_;
  std::condition_variable entered_cv_;
  bool open_ = false;
  int entered_ = 0;
  std::vector<std::int64_t> order_;
};

TEST(FetchQueueTest, DemandFetchesPreemptQueuedPrefetches) {
  BlockCache::Config cache_config = SmallCache(false, 16);
  cache_config.staged_cap_bytes = 16 * kBlockBytes;  // Hold all completions.
  BlockCache cache(cache_config);
  FetchQueueConfig config;
  config.num_fetchers = 1;  // Deterministic service order.
  FetchQueue queue(config, [&cache](const BlockKey& key,
                                    std::vector<std::byte> payload,
                                    FetchPriority priority) {
    cache.Insert(key, std::move(payload),
                 priority == FetchPriority::kDemand);
  });
  auto provider = std::make_shared<GatedProvider>();

  // Prefetch A starts fetching and parks at the gate; prefetches B and C
  // queue behind it; then a demand fetch D arrives.
  queue.Enqueue(BlockKey{1, 0}, provider, 0, FetchPriority::kPrefetch,
                nullptr);
  provider->AwaitFetchEntered(1);
  queue.Enqueue(BlockKey{1, 1}, provider, 1, FetchPriority::kPrefetch,
                nullptr);
  queue.Enqueue(BlockKey{1, 2}, provider, 2, FetchPriority::kPrefetch,
                nullptr);
  Status demand_status = Status::Internal("never completed");
  queue.Enqueue(BlockKey{1, 3}, provider, 3, FetchPriority::kDemand,
                [&demand_status](const Status& s) { demand_status = s; });
  provider->OpenGate();
  queue.WaitIdle();

  // D overtook the queued prefetches: service order A, D, then B, C.
  const std::vector<std::int64_t> order = provider->order();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 3);
  EXPECT_EQ(order[2], 1);
  EXPECT_EQ(order[3], 2);
  EXPECT_TRUE(demand_status.ok());
  for (std::int64_t b = 0; b < 4; ++b) {
    EXPECT_TRUE(cache.Contains(BlockKey{1, b}));
  }
  const FetchQueueStats stats = queue.stats();
  EXPECT_EQ(stats.demand_enqueued, 1);
  EXPECT_EQ(stats.prefetch_enqueued, 3);
  EXPECT_EQ(stats.completed, 4);
}

TEST(FetchQueueTest, DemandEnqueueUpgradesQueuedPrefetch) {
  BlockCache cache(SmallCache(false, 16));
  FetchQueueConfig config;
  config.num_fetchers = 1;
  FetchQueue queue(config, [&cache](const BlockKey& key,
                                    std::vector<std::byte> payload,
                                    FetchPriority priority) {
    cache.Insert(key, std::move(payload),
                 priority == FetchPriority::kDemand);
  });
  auto provider = std::make_shared<GatedProvider>();

  queue.Enqueue(BlockKey{1, 0}, provider, 0, FetchPriority::kPrefetch,
                nullptr);
  provider->AwaitFetchEntered(1);
  queue.Enqueue(BlockKey{1, 1}, provider, 1, FetchPriority::kPrefetch,
                nullptr);
  // Block 2 queues as a warm-up, then a session parks on it: one fetch,
  // served at demand priority, both callers coalesced.
  queue.Enqueue(BlockKey{1, 2}, provider, 2, FetchPriority::kPrefetch,
                nullptr);
  bool completed = false;
  queue.Enqueue(BlockKey{1, 2}, provider, 2, FetchPriority::kDemand,
                [&completed](const Status& s) { completed = s.ok(); });
  provider->OpenGate();
  queue.WaitIdle();

  const std::vector<std::int64_t> order = provider->order();
  ASSERT_EQ(order.size(), 3u);  // Block 2 fetched exactly once.
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 2);  // Upgraded ahead of prefetch 1.
  EXPECT_EQ(order[2], 1);
  EXPECT_TRUE(completed);
  const FetchQueueStats stats = queue.stats();
  EXPECT_EQ(stats.upgraded, 1);
  EXPECT_EQ(stats.coalesced, 1);
}

TEST(FetchQueueTest, TransientErrorsRetryUntilBoundThenFail) {
  /// Fails with a transient status the first `fail` times per block.
  class FlakyProvider final : public BlockProvider {
   public:
    explicit FlakyProvider(int fail) : fail_(fail) {
      geometry_.type = storage::DataType::kInt64;
      geometry_.row_count = 10'000;
      geometry_.rows_per_block = 1'000;
    }
    const BlockGeometry& geometry() const override { return geometry_; }
    bool async() const override { return true; }
    Result<std::vector<std::byte>> Fetch(std::int64_t block) override {
      const std::lock_guard<std::mutex> lock(mu_);
      if (attempts_++ < fail_) {
        return Status::Aborted("injected transport failure");
      }
      return PayloadFor(block);
    }

   private:
    BlockGeometry geometry_;
    std::mutex mu_;
    int fail_;
    int attempts_ = 0;
  };

  BlockCache cache(SmallCache(false, 16));
  FetchQueueConfig config;
  config.num_fetchers = 1;
  config.max_retries = 3;
  config.retry_backoff_us = 50;
  const FetchQueue::Sink sink = [&cache](const BlockKey& key,
                                         std::vector<std::byte> payload,
                                         FetchPriority priority) {
    cache.Insert(key, std::move(payload),
                 priority == FetchPriority::kDemand);
  };
  {
    // Two transient failures, then success: waiter sees OK.
    FetchQueue queue(config, sink);
    auto provider = std::make_shared<FlakyProvider>(2);
    Status status = Status::Internal("never completed");
    queue.Enqueue(BlockKey{1, 0}, provider, 0, FetchPriority::kDemand,
                  [&status](const Status& s) { status = s; });
    queue.WaitIdle();
    EXPECT_TRUE(status.ok());
    EXPECT_TRUE(cache.Contains(BlockKey{1, 0}));
    EXPECT_EQ(queue.stats().retries, 2);
    EXPECT_EQ(queue.stats().failures, 0);
  }
  {
    // More failures than the bound: the final error reaches the waiter.
    FetchQueue queue(config, sink);
    auto provider = std::make_shared<FlakyProvider>(100);
    Status status;
    queue.Enqueue(BlockKey{2, 0}, provider, 0, FetchPriority::kDemand,
                  [&status](const Status& s) { status = s; });
    queue.WaitIdle();
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kAborted);
    EXPECT_FALSE(cache.Contains(BlockKey{2, 0}));
    EXPECT_EQ(queue.stats().failures, 1);
    EXPECT_EQ(queue.stats().retries, 3);
  }
}

TEST(BufferManagerTest, AsyncSourceSuspendsOnColdBlockAndHitsAfterFetch) {
  BufferManagerConfig config;
  config.rows_per_block = 1'000;
  BufferManager manager(config);
  auto provider = std::make_shared<GatedProvider>();
  provider->OpenGate();  // No latency needed here.
  auto source = *manager.SourceFor("cold.v", 0, provider);
  ASSERT_TRUE(source->may_block());

  // Probe: miss, no blocking fill.
  auto probe = source->TryPinBlock(3, -1);
  ASSERT_TRUE(probe.ok());
  EXPECT_FALSE(probe->has_value());

  // Demand-fetch it, then the probe hits.
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  ASSERT_TRUE(source
                  ->StartFetch(3,
                               [&](const Status& s) {
                                 EXPECT_TRUE(s.ok());
                                 const std::lock_guard<std::mutex> lock(mu);
                                 done = true;
                                 cv.notify_all();
                               })
                  .ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(10), [&] { return done; });
    ASSERT_TRUE(done);
  }
  auto pinned = source->TryPinBlock(3, -1);
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(pinned->has_value());
  EXPECT_EQ((*pinned)->view().row_count(), kBlockBytes / 8);
}

TEST(BufferManagerTest, RemoteProviderFaultsColdBlocksOnce) {
  const Column base = storage::GenSequenceInt64("v", 1 << 12, 0, 1);
  remote::RemoteServer server(base.View());
  BufferManagerConfig config;
  config.rows_per_block = 256;
  BufferManager manager(config);
  auto provider =
      std::make_shared<RemoteBlockProvider>(&server, config.rows_per_block);
  auto source = *manager.SourceFor("cold.v", 0, provider);
  storage::PagedColumnCursor cursor(source);

  for (RowId r = 0; r < 512; ++r) {
    EXPECT_EQ(cursor.GetAsDouble(r), static_cast<double>(r));
  }
  EXPECT_EQ(provider->requests(), 2);  // Two blocks faulted from the slow tier.
  cursor.ReleasePin();
  // Warm re-examination: answered from the cache, no new remote reads.
  for (RowId r = 0; r < 512; ++r) {
    cursor.GetAsDouble(r);
  }
  EXPECT_EQ(provider->requests(), 2);
  EXPECT_GT(provider->bytes_fetched(), 0);
}

TEST(RemoteBlockProviderTest, EveryTypeRoundTripsExactly) {
  // Values a numeric (double) wire would round: int64 past 2^53 and at
  // the type's limits, float/double signed zeros, infinities and
  // subnormals. Row-major storage makes the server gather strided fields.
  constexpr std::int64_t kPast53 = (std::int64_t{1} << 53) + 1;
  const std::vector<std::string> strings = {"alpha", "beta", "alpha",
                                            "gamma", "delta"};
  std::vector<Column> cols;
  cols.push_back(Column::FromInt64(
      "i64", {kPast53, -kPast53, std::numeric_limits<std::int64_t>::max(),
              std::numeric_limits<std::int64_t>::min(), 0}));
  cols.push_back(Column::FromInt32(
      "i32", {std::numeric_limits<std::int32_t>::max(),
              std::numeric_limits<std::int32_t>::min(), -7, 0, 1}));
  cols.push_back(Column::FromFloat(
      "f32", {1.1F, -0.0F, std::numeric_limits<float>::infinity(),
              std::numeric_limits<float>::denorm_min(),
              std::numeric_limits<float>::max()}));
  cols.push_back(Column::FromDouble(
      "f64", {0.1, -0.0, -std::numeric_limits<double>::infinity(),
              std::numeric_limits<double>::denorm_min(),
              std::numeric_limits<double>::max()}));
  cols.push_back(Column::FromStrings("s", strings));
  const auto table = storage::Table::FromColumns(
      "types", std::move(cols), storage::MajorOrder::kRowMajor);
  ASSERT_TRUE(table.ok());

  for (std::size_t c = 0; c < (*table)->schema().num_fields(); ++c) {
    const storage::ColumnView source = (*table)->ColumnViewAt(c);
    remote::RemoteServer server(source);
    RemoteBlockProvider provider(&server, /*rows_per_block=*/2);
    ASSERT_EQ(provider.geometry().type, source.type());
    ASSERT_EQ(provider.geometry().row_count, source.row_count());
    const std::size_t width = provider.geometry().width();

    // Every field of `payload`, read from `first_row` on, must equal the
    // source bit for bit and box to the same value.
    const auto expect_exact = [&](const std::vector<std::byte>& payload,
                                  RowId first_row) {
      const storage::ColumnView got(
          provider.geometry().type, payload.data(), width,
          static_cast<std::int64_t>(payload.size() / width),
          provider.dictionary());
      for (RowId r = 0; r < got.row_count(); ++r) {
        const RowId row = first_row + r;
        EXPECT_EQ(std::memcmp(payload.data() + r * width,
                              source.data() + row * source.stride(), width),
                  0)
            << "column " << c << " row " << row;
        EXPECT_TRUE(got.GetValue(r) == source.GetValue(row))
            << "column " << c << " row " << row << ": got "
            << got.GetValue(r).ToString() << ", want "
            << source.GetValue(row).ToString();
        if (source.type() == storage::DataType::kString) {
          ASSERT_TRUE(got.GetValue(r).is_string());
          EXPECT_EQ(got.GetValue(r).AsString(),
                    strings[static_cast<std::size_t>(row)]);
        }
      }
    };

    RowId first_row = 0;
    for (std::int64_t block = 0; block < provider.geometry().num_blocks();
         ++block) {
      const auto payload = provider.Fetch(block);
      ASSERT_TRUE(payload.ok()) << payload.status().ToString();
      ASSERT_EQ(payload->size(),
                static_cast<std::size_t>(
                    provider.geometry().BlockRowCount(block)) *
                    width);
      expect_exact(*payload, first_row);
      first_row += provider.geometry().BlockRowCount(block);
    }
    const auto range =
        provider.ReadRange(0, provider.geometry().num_blocks());
    ASSERT_TRUE(range.ok()) << range.status().ToString();
    ASSERT_EQ(range->size(),
              static_cast<std::size_t>(source.row_count()) * width);
    expect_exact(*range, 0);
  }
}

// ---- Ranged-read coalescing (batched demand fetches) ------------------------

/// Gated provider that also records ReadRange calls, so tests can assert
/// how many provider round trips a set of misses actually cost.
class RangedGatedProvider final : public BlockProvider {
 public:
  struct Call {
    std::int64_t first = 0;
    std::int64_t count = 0;  // 1 = single-block Fetch.
  };

  RangedGatedProvider() {
    geometry_.type = storage::DataType::kInt64;
    geometry_.row_count = 1'000'000;
    geometry_.rows_per_block = kBlockBytes / 8;
  }

  const BlockGeometry& geometry() const override { return geometry_; }
  bool async() const override { return true; }

  Result<std::vector<std::byte>> Fetch(std::int64_t block) override {
    Gate(Call{block, 1});
    return PayloadFor(block);
  }

  Result<std::vector<std::byte>> ReadRange(std::int64_t first_block,
                                           std::int64_t count) override {
    Gate(Call{first_block, count});
    std::vector<std::byte> payload;
    for (std::int64_t b = first_block; b < first_block + count; ++b) {
      const std::vector<std::byte> one = PayloadFor(b);
      payload.insert(payload.end(), one.begin(), one.end());
    }
    return payload;
  }

  void OpenGate() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    gate_cv_.notify_all();
  }
  void AwaitCallEntered(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    entered_cv_.wait_for(lock, std::chrono::seconds(10),
                         [&] { return entered_ >= n; });
  }
  std::vector<Call> calls() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }

 private:
  void Gate(const Call& call) {
    std::unique_lock<std::mutex> lock(mu_);
    ++entered_;
    entered_cv_.notify_all();
    gate_cv_.wait_for(lock, std::chrono::seconds(10),
                      [this] { return open_; });
    calls_.push_back(call);
  }

  BlockGeometry geometry_;
  mutable std::mutex mu_;
  std::condition_variable gate_cv_;
  std::condition_variable entered_cv_;
  bool open_ = false;
  int entered_ = 0;
  std::vector<Call> calls_;
};

FetchQueue::Sink InsertSink(BlockCache& cache) {
  return [&cache](const BlockKey& key, std::vector<std::byte> payload,
                  FetchPriority priority) {
    cache.Insert(key, std::move(payload),
                 priority == FetchPriority::kDemand);
  };
}

TEST(FetchQueueTest, AdjacentDemandMissesCoalesceIntoOneRangedRead) {
  BlockCache::Config cache_config = SmallCache(false, 16);
  cache_config.staged_cap_bytes = 16 * kBlockBytes;
  BlockCache cache(cache_config);
  FetchQueueConfig config;
  config.num_fetchers = 1;
  FetchQueue queue(config, InsertSink(cache));
  auto provider = std::make_shared<RangedGatedProvider>();

  // Hold the fetcher on an unrelated block so the band's four demand
  // enqueues are all queued when the fetcher next pops.
  queue.Enqueue(BlockKey{1, 100}, provider, 100, FetchPriority::kDemand,
                nullptr);
  provider->AwaitCallEntered(1);
  int completions = 0;
  for (std::int64_t b = 3; b <= 6; ++b) {
    queue.Enqueue(BlockKey{1, b}, provider, b, FetchPriority::kDemand,
                  [&completions](const Status& s) {
                    EXPECT_TRUE(s.ok());
                    ++completions;
                  });
  }
  provider->OpenGate();
  queue.WaitIdle();

  // One ranged read served the whole band; every waiter completed and
  // every block is resident with its own bytes.
  const std::vector<RangedGatedProvider::Call> calls = provider->calls();
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0].first, 100);
  EXPECT_EQ(calls[0].count, 1);
  EXPECT_EQ(calls[1].first, 3);
  EXPECT_EQ(calls[1].count, 4);
  EXPECT_EQ(completions, 4);
  for (std::int64_t b = 3; b <= 6; ++b) {
    auto pinned = cache.TryPin(BlockKey{1, b}, -1);
    ASSERT_TRUE(pinned.has_value()) << "block " << b;
    const auto expected = PayloadFor(b);
    EXPECT_EQ(std::memcmp(pinned->data, expected.data(), expected.size()),
              0)
        << "block " << b;
    cache.Unpin(BlockKey{1, b});
  }
  const FetchQueueStats stats = queue.stats();
  EXPECT_EQ(stats.ranged_reads, 1);
  EXPECT_EQ(stats.ranged_blocks, 4);
  EXPECT_EQ(stats.completed, 5);
}

TEST(FetchQueueTest, NonAdjacentMissesDoNotMerge) {
  BlockCache cache(SmallCache(false, 16));
  FetchQueueConfig config;
  config.num_fetchers = 1;
  FetchQueue queue(config, InsertSink(cache));
  auto provider = std::make_shared<RangedGatedProvider>();

  queue.Enqueue(BlockKey{1, 100}, provider, 100, FetchPriority::kDemand,
                nullptr);
  provider->AwaitCallEntered(1);
  for (const std::int64_t b : {1, 5, 9}) {  // Gaps between every pair.
    queue.Enqueue(BlockKey{1, b}, provider, b, FetchPriority::kDemand,
                  nullptr);
  }
  provider->OpenGate();
  queue.WaitIdle();

  const std::vector<RangedGatedProvider::Call> calls = provider->calls();
  ASSERT_EQ(calls.size(), 4u);
  for (const auto& call : calls) {
    EXPECT_EQ(call.count, 1);
  }
  EXPECT_EQ(queue.stats().ranged_reads, 0);
  EXPECT_EQ(queue.stats().ranged_blocks, 0);
}

TEST(FetchQueueTest, CoalescingIsBoundedByMaxCoalesceBlocks) {
  BlockCache::Config cache_config = SmallCache(false, 32);
  cache_config.staged_cap_bytes = 32 * kBlockBytes;
  BlockCache cache(cache_config);
  FetchQueueConfig config;
  config.num_fetchers = 1;
  config.max_coalesce_blocks = 4;
  FetchQueue queue(config, InsertSink(cache));
  auto provider = std::make_shared<RangedGatedProvider>();

  queue.Enqueue(BlockKey{1, 100}, provider, 100, FetchPriority::kDemand,
                nullptr);
  provider->AwaitCallEntered(1);
  for (std::int64_t b = 0; b < 6; ++b) {  // An adjacent run of 6.
    queue.Enqueue(BlockKey{1, b}, provider, b, FetchPriority::kDemand,
                  nullptr);
  }
  provider->OpenGate();
  queue.WaitIdle();

  // 4-block cap: the run is served as a range of 4 plus a range of 2.
  const std::vector<RangedGatedProvider::Call> calls = provider->calls();
  ASSERT_EQ(calls.size(), 3u);
  EXPECT_EQ(calls[1].count, 4);
  EXPECT_EQ(calls[2].count, 2);
  EXPECT_EQ(queue.stats().ranged_reads, 2);
  EXPECT_EQ(queue.stats().ranged_blocks, 6);
}

TEST(FetchQueueTest, DemandFaultPreemptsCoalescedPrefetchRange) {
  BlockCache::Config cache_config = SmallCache(false, 16);
  cache_config.staged_cap_bytes = 16 * kBlockBytes;
  BlockCache cache(cache_config);
  FetchQueueConfig config;
  config.num_fetchers = 1;
  FetchQueue queue(config, InsertSink(cache));
  auto provider = std::make_shared<RangedGatedProvider>();

  // An adjacent prefetch run queues behind a gated fetch; then a demand
  // fault for an unrelated block arrives.
  queue.Enqueue(BlockKey{1, 100}, provider, 100, FetchPriority::kPrefetch,
                nullptr);
  provider->AwaitCallEntered(1);
  for (std::int64_t b = 0; b < 4; ++b) {
    queue.Enqueue(BlockKey{1, b}, provider, b, FetchPriority::kPrefetch,
                  nullptr);
  }
  Status demand_status = Status::Internal("never completed");
  queue.Enqueue(BlockKey{1, 20}, provider, 20, FetchPriority::kDemand,
                [&demand_status](const Status& s) { demand_status = s; });
  provider->OpenGate();
  queue.WaitIdle();

  // The demand fault ran BEFORE the coalesced prefetch range, and the
  // range still went out as one ranged read (not block by block).
  const std::vector<RangedGatedProvider::Call> calls = provider->calls();
  ASSERT_EQ(calls.size(), 3u);
  EXPECT_EQ(calls[1].first, 20);
  EXPECT_EQ(calls[1].count, 1);
  EXPECT_EQ(calls[2].first, 0);
  EXPECT_EQ(calls[2].count, 4);
  EXPECT_TRUE(demand_status.ok());
}

TEST(FetchQueueTest, DemandRangeDoesNotSwallowAdjacentPrefetch) {
  BlockCache::Config cache_config = SmallCache(false, 16);
  cache_config.staged_cap_bytes = 16 * kBlockBytes;
  BlockCache cache(cache_config);
  FetchQueueConfig config;
  config.num_fetchers = 1;
  FetchQueue queue(config, InsertSink(cache));
  auto provider = std::make_shared<RangedGatedProvider>();

  queue.Enqueue(BlockKey{1, 100}, provider, 100, FetchPriority::kDemand,
                nullptr);
  provider->AwaitCallEntered(1);
  // A warm-up sits right next to a two-block demand band: the demand
  // range must not grow by it (a parked session would wait on warm-up
  // bytes), so it is served separately at prefetch priority.
  queue.Enqueue(BlockKey{1, 2}, provider, 2, FetchPriority::kPrefetch,
                nullptr);
  queue.Enqueue(BlockKey{1, 3}, provider, 3, FetchPriority::kDemand,
                nullptr);
  queue.Enqueue(BlockKey{1, 4}, provider, 4, FetchPriority::kDemand,
                nullptr);
  provider->OpenGate();
  queue.WaitIdle();

  const std::vector<RangedGatedProvider::Call> calls = provider->calls();
  ASSERT_EQ(calls.size(), 3u);
  EXPECT_EQ(calls[1].first, 3);  // Demand pair as one range...
  EXPECT_EQ(calls[1].count, 2);
  EXPECT_EQ(calls[2].first, 2);  // ...the warm-up on its own after.
  EXPECT_EQ(calls[2].count, 1);
}

// ---- Cancellation on session close ------------------------------------------

TEST(FetchQueueTest, CancelTaggedDropsQueuedButNotInFlightFetches) {
  BlockCache cache(SmallCache(false, 16));
  FetchQueueConfig config;
  config.num_fetchers = 1;
  config.max_coalesce_blocks = 1;  // One request per provider call.
  FetchQueue queue(config, InsertSink(cache));
  auto provider = std::make_shared<RangedGatedProvider>();

  // Session 7 has one fetch in flight and two queued (non-adjacent);
  // session 8 has one queued.
  Status in_flight_status = Status::Internal("never completed");
  queue.Enqueue(BlockKey{1, 0}, provider, 0, FetchPriority::kDemand,
                [&in_flight_status](const Status& s) {
                  in_flight_status = s;
                },
                /*tag=*/7);
  provider->AwaitCallEntered(1);
  std::vector<Status> cancelled_statuses;
  std::mutex cancelled_mu;
  const auto record = [&](const Status& s) {
    const std::lock_guard<std::mutex> lock(cancelled_mu);
    cancelled_statuses.push_back(s);
  };
  queue.Enqueue(BlockKey{1, 10}, provider, 10, FetchPriority::kDemand,
                record, /*tag=*/7);
  queue.Enqueue(BlockKey{1, 20}, provider, 20, FetchPriority::kDemand,
                record, /*tag=*/7);
  Status other_status = Status::Internal("never completed");
  queue.Enqueue(BlockKey{1, 30}, provider, 30, FetchPriority::kDemand,
                [&other_status](const Status& s) { other_status = s; },
                /*tag=*/8);

  // Session 7 closes: its queued tickets die now, and its in-flight
  // waiter fails fast too (the ticket balance a caller counts on) — the
  // read itself finishes its current attempt and still delivers to the
  // shared cache, it just spends no retries on the dead session.
  EXPECT_EQ(queue.CancelTagged(7), 2u);
  {
    const std::lock_guard<std::mutex> lock(cancelled_mu);
    ASSERT_EQ(cancelled_statuses.size(), 2u);
    for (const Status& s : cancelled_statuses) {
      EXPECT_EQ(s.code(), StatusCode::kAborted);
    }
  }
  EXPECT_EQ(in_flight_status.code(), StatusCode::kAborted);
  provider->OpenGate();
  queue.WaitIdle();

  EXPECT_TRUE(other_status.ok());
  // Blocks 10 and 20 were never read from the provider; block 0's read
  // was already running, so its payload still lands in the shared pool.
  const std::vector<RangedGatedProvider::Call> calls = provider->calls();
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0].first, 0);
  EXPECT_EQ(calls[1].first, 30);
  EXPECT_TRUE(cache.Contains(BlockKey{1, 0}));
  EXPECT_FALSE(cache.Contains(BlockKey{1, 10}));
  EXPECT_FALSE(cache.Contains(BlockKey{1, 20}));
  EXPECT_EQ(queue.stats().cancelled, 2);
}

TEST(FetchQueueTest, CancelTaggedKeepsRequestsWithOtherWaiters) {
  BlockCache cache(SmallCache(false, 16));
  FetchQueueConfig config;
  config.num_fetchers = 1;
  FetchQueue queue(config, InsertSink(cache));
  auto provider = std::make_shared<RangedGatedProvider>();

  queue.Enqueue(BlockKey{1, 100}, provider, 100, FetchPriority::kDemand,
                nullptr);
  provider->AwaitCallEntered(1);
  // Two sessions coalesced onto one block; one of them closes.
  Status survivor_status = Status::Internal("never completed");
  bool cancelled_fired = false;
  queue.Enqueue(BlockKey{1, 5}, provider, 5, FetchPriority::kDemand,
                [&cancelled_fired](const Status&) {
                  cancelled_fired = true;
                },
                /*tag=*/7);
  queue.Enqueue(BlockKey{1, 5}, provider, 5, FetchPriority::kDemand,
                [&survivor_status](const Status& s) {
                  survivor_status = s;
                },
                /*tag=*/8);
  EXPECT_EQ(queue.CancelTagged(7), 0u);  // Request survives for tag 8.
  EXPECT_TRUE(cancelled_fired);          // But 7's waiter was released.
  provider->OpenGate();
  queue.WaitIdle();

  EXPECT_TRUE(survivor_status.ok());
  EXPECT_TRUE(cache.Contains(BlockKey{1, 5}));
  EXPECT_EQ(queue.stats().cancelled, 0);
}

TEST(FetchQueueTest, CancelTaggedAbortsInFlightRetryLoop) {
  /// Gates the first attempt, then fails transiently forever: without an
  /// abort the queue would grind through every retry (with backoff).
  class GatedFailingProvider final : public BlockProvider {
   public:
    GatedFailingProvider() {
      geometry_.type = storage::DataType::kInt64;
      geometry_.row_count = 10'000;
      geometry_.rows_per_block = 1'000;
    }
    const BlockGeometry& geometry() const override { return geometry_; }
    bool async() const override { return true; }
    Result<std::vector<std::byte>> Fetch(std::int64_t) override {
      std::unique_lock<std::mutex> lock(mu_);
      ++attempts_;
      entered_cv_.notify_all();
      gate_cv_.wait_for(lock, std::chrono::seconds(10),
                        [this] { return open_; });
      return Status::Aborted("injected transport failure");
    }
    void OpenGate() {
      {
        const std::lock_guard<std::mutex> lock(mu_);
        open_ = true;
      }
      gate_cv_.notify_all();
    }
    void AwaitAttempt() {
      std::unique_lock<std::mutex> lock(mu_);
      entered_cv_.wait_for(lock, std::chrono::seconds(10),
                           [this] { return attempts_ >= 1; });
    }
    int attempts() const {
      const std::lock_guard<std::mutex> lock(mu_);
      return attempts_;
    }

   private:
    BlockGeometry geometry_;
    mutable std::mutex mu_;
    std::condition_variable gate_cv_;
    std::condition_variable entered_cv_;
    bool open_ = false;
    int attempts_ = 0;
  };

  BlockCache cache(SmallCache(false, 16));
  FetchQueueConfig config;
  config.num_fetchers = 1;
  config.max_retries = 8;            // A full fetch would spend 8 retries.
  config.retry_backoff_us = 10'000;  // ...and ~2.5s of backoff.
  FetchQueue queue(config, InsertSink(cache));
  auto provider = std::make_shared<GatedFailingProvider>();

  Status waiter_status = Status::Internal("never fired");
  queue.Enqueue(BlockKey{1, 0}, provider, 0, FetchPriority::kDemand,
                [&waiter_status](const Status& s) { waiter_status = s; },
                /*tag=*/7);
  provider->AwaitAttempt();
  // The session closes mid-attempt: its waiter fails now, the abort
  // latch caps the read at the attempt already running.
  EXPECT_EQ(queue.CancelTagged(7), 0u);  // In flight: not "dropped".
  EXPECT_EQ(waiter_status.code(), StatusCode::kAborted);
  provider->OpenGate();
  queue.WaitIdle();

  EXPECT_EQ(provider->attempts(), 1);  // One attempt, zero retries.
  const FetchQueueStats stats = queue.stats();
  EXPECT_EQ(stats.aborted, 1);
  EXPECT_EQ(stats.retries, 0);
  EXPECT_EQ(stats.failures, 1);
}

TEST(FetchQueueTest, EnqueueRangePopsAsOnePreFormedRangedRead) {
  BlockCache::Config cache_config = SmallCache(false, 16);
  cache_config.staged_cap_bytes = 16 * kBlockBytes;
  BlockCache cache(cache_config);
  FetchQueueConfig config;
  config.num_fetchers = 1;
  FetchQueue queue(config, InsertSink(cache));
  auto provider = std::make_shared<RangedGatedProvider>();

  // Hold the fetcher on an unrelated block so the run is popped whole.
  queue.Enqueue(BlockKey{1, 100}, provider, 100, FetchPriority::kDemand,
                nullptr);
  provider->AwaitCallEntered(1);
  EXPECT_EQ(queue.EnqueueRange(1, provider, 3, 5), 5u);
  // Re-requesting overlapping blocks coalesces into the queued run.
  EXPECT_EQ(queue.EnqueueRange(1, provider, 4, 2), 0u);
  provider->OpenGate();
  queue.WaitIdle();

  const std::vector<RangedGatedProvider::Call> calls = provider->calls();
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[1].first, 3);
  EXPECT_EQ(calls[1].count, 5);  // ONE ReadRange for the whole run.
  for (std::int64_t b = 3; b <= 7; ++b) {
    EXPECT_TRUE(cache.Contains(BlockKey{1, b})) << "block " << b;
  }
  const FetchQueueStats stats = queue.stats();
  EXPECT_EQ(stats.prefetch_enqueued, 5);
  EXPECT_EQ(stats.ranged_reads, 1);
  EXPECT_EQ(stats.ranged_blocks, 5);
  EXPECT_EQ(stats.coalesced, 2);
}

TEST(FetchQueueTest, DemandEnqueueSplitsQueuedPrefetchRange) {
  BlockCache::Config cache_config = SmallCache(false, 16);
  cache_config.staged_cap_bytes = 16 * kBlockBytes;
  BlockCache cache(cache_config);
  FetchQueueConfig config;
  config.num_fetchers = 1;
  FetchQueue queue(config, InsertSink(cache));
  auto provider = std::make_shared<RangedGatedProvider>();

  queue.Enqueue(BlockKey{1, 100}, provider, 100, FetchPriority::kDemand,
                nullptr);
  provider->AwaitCallEntered(1);
  EXPECT_EQ(queue.EnqueueRange(1, provider, 0, 4), 4u);  // Blocks 0..3.
  // A session faults on block 2: it must pop block-sized in the demand
  // lane, ahead of the warm-up run, and no warm-up neighbour may join it.
  Status demand_status = Status::Internal("never fired");
  queue.Enqueue(BlockKey{1, 2}, provider, 2, FetchPriority::kDemand,
                [&demand_status](const Status& s) { demand_status = s; });
  provider->OpenGate();
  queue.WaitIdle();

  EXPECT_TRUE(demand_status.ok());
  const std::vector<RangedGatedProvider::Call> calls = provider->calls();
  ASSERT_EQ(calls.size(), 4u);
  EXPECT_EQ(calls[1].first, 2);  // Demand first, alone.
  EXPECT_EQ(calls[1].count, 1);
  EXPECT_EQ(calls[2].first, 0);  // Warm-ups left of the demand block.
  EXPECT_EQ(calls[2].count, 2);
  EXPECT_EQ(calls[3].first, 3);  // And the one right of it.
  EXPECT_EQ(calls[3].count, 1);
  for (std::int64_t b = 0; b <= 3; ++b) {
    EXPECT_TRUE(cache.Contains(BlockKey{1, b})) << "block " << b;
  }
  EXPECT_EQ(queue.stats().upgraded, 1);
}

// ---- HashTableCache --------------------------------------------------------

TEST(HashTableCacheTest, KeyEncodesJoinAndLevel) {
  EXPECT_EQ(HashTableCache::MakeKey("a=b", 3), "a=b@L3");
}

TEST(HashTableCacheTest, PutGetRoundTrip) {
  const Column l = Column::FromInt32("l", {1, 2});
  const Column r = Column::FromInt32("r", {2, 3});
  HashTableCache cache(2);
  auto join = std::make_shared<exec::SymmetricHashJoin>(l.View(), r.View());
  join->Feed(exec::JoinSide::kLeft, 1);
  cache.Put("j@L0", join);
  const auto got = cache.Get("j@L0");
  ASSERT_NE(got, nullptr);
  // The cached join resumes with its fed state intact.
  EXPECT_EQ(got->left_fed(), 1);
  EXPECT_EQ(got->Feed(exec::JoinSide::kRight, 0).size(), 1u);
}

TEST(HashTableCacheTest, MissReturnsNull) {
  HashTableCache cache(2);
  EXPECT_EQ(cache.Get("nope"), nullptr);
  EXPECT_EQ(cache.stats().lookups, 1);
  EXPECT_EQ(cache.stats().hits, 0);
}

TEST(HashTableCacheTest, EvictsLeastRecentlyUsed) {
  const Column l = Column::FromInt32("l", {1});
  const Column r = Column::FromInt32("r", {1});
  HashTableCache cache(2);
  const auto mk = [&] {
    return std::make_shared<exec::SymmetricHashJoin>(l.View(), r.View());
  };
  cache.Put("a", mk());
  cache.Put("b", mk());
  cache.Get("a");      // a most recent.
  cache.Put("c", mk());  // Evicts b.
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(HashTableCacheTest, PutSameKeyReplaces) {
  const Column l = Column::FromInt32("l", {1});
  const Column r = Column::FromInt32("r", {1});
  HashTableCache cache(2);
  auto first = std::make_shared<exec::SymmetricHashJoin>(l.View(), r.View());
  first->Feed(exec::JoinSide::kLeft, 0);
  cache.Put("k", first);
  auto fresh = std::make_shared<exec::SymmetricHashJoin>(l.View(), r.View());
  cache.Put("k", fresh);
  EXPECT_EQ(cache.Get("k")->left_fed(), 0);
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace dbtouch::cache
