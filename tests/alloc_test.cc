// Heap allocations on the touch path. Every form of global operator new
// and delete below is a counting version that forwards to malloc,
// aligned_alloc and free, so the sanitizers still see every block.
//
// A steady slide step (a move of a finger that is already sliding) must
// make no heap allocation: not in the kernel, for any of the slide
// actions, and not on a server worker draining a backlog of such steps.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "core/action.h"
#include "core/kernel.h"
#include "server/api.h"
#include "server/touch_server.h"
#include "server_harness.h"
#include "sim/touch_event.h"
#include "storage/column.h"
#include "storage/datagen.h"
#include "storage/table.h"

namespace {

/// Every allocation in the process, and the calling thread's own.
std::atomic<std::int64_t> g_allocations{0};
thread_local std::int64_t t_allocations = 0;

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  ++t_allocations;
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  return std::aligned_alloc(a, rounded);
}

void* OrThrow(void* p) {
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return OrThrow(CountedAlloc(size)); }
void* operator new[](std::size_t size) { return OrThrow(CountedAlloc(size)); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return OrThrow(CountedAlignedAlloc(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return OrThrow(CountedAlignedAlloc(size, align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace dbtouch {
namespace {

using core::ActionConfig;
using core::Kernel;
using core::KernelConfig;
using sim::PointCm;
using sim::TouchEvent;
using sim::TouchPhase;

constexpr std::int64_t kRows = 1 << 18;

std::shared_ptr<storage::Table> DoubleTable() {
  std::vector<storage::Column> cols;
  cols.push_back(storage::GenGaussianDouble("v", kRows, 100.0, 15.0, 7));
  return *storage::Table::FromColumns("t", std::move(cols));
}

/// One finger's contact with the 2 x 10 cm object at x = 3, y in [1, 11]:
/// it lands at the top and then moves at `speed_cm_s` down and back up,
/// one move per device event, for `moves` moves. Timestamps start at
/// `start_us`.
std::vector<TouchEvent> BackAndForth(std::int64_t moves, double speed_cm_s,
                                     double event_hz, sim::Micros start_us) {
  std::vector<TouchEvent> events;
  const auto step_us = static_cast<sim::Micros>(1e6 / event_hz);
  const double step_cm = speed_cm_s / event_hz;
  double y = 1.0;
  double dir = 1.0;
  sim::Micros t = start_us;
  events.push_back(TouchEvent{t, 0, TouchPhase::kBegan, PointCm{3.0, y}});
  for (std::int64_t i = 0; i < moves; ++i) {
    if (y + dir * step_cm > 10.9 || y + dir * step_cm < 1.1) {
      dir = -dir;
    }
    y += dir * step_cm;
    t += step_us;
    events.push_back(TouchEvent{t, 0, TouchPhase::kMoved, PointCm{3.0, y}});
  }
  return events;
}

/// Slides over a column object with `action` twice, the second slide
/// retracing the first; returns the allocations of each steady step of
/// the second slide (a move made once the slide has begun). The pool
/// retains every block the first slide reads (no scan bypass), so the
/// second slide reads resident blocks only: it measures the step, not a
/// fill, which reads a block into a new payload buffer.
std::vector<std::int64_t> SecondSlideAllocations(KernelConfig config,
                                                 const ActionConfig& action,
                                                 int* level_used) {
  config.buffer.gesture_aware = false;
  Kernel kernel(config);
  EXPECT_TRUE(kernel.RegisterTable(DoubleTable()).ok());
  const auto id =
      kernel.CreateColumnObject("t", "v", touch::RectCm{2.0, 1.0, 2.0, 10.0});
  EXPECT_TRUE(id.ok()) << id.status();
  EXPECT_TRUE(kernel.SetAction(*id, action).ok());

  const double hz = kernel.device().config().touch_event_hz;
  std::vector<TouchEvent> slide = BackAndForth(60, 10.0, hz, 0);
  const sim::Micros span = slide.back().timestamp_us + 100'000;
  slide.push_back(slide.back());
  slide.back().phase = TouchPhase::kEnded;
  for (const TouchEvent& e : slide) {
    kernel.OnTouch(e);
  }
  // Clear keeps the stream's capacity.
  kernel.results().Clear();

  const cache::BufferManager& pool = kernel.shared_state()->buffer_manager();
  const std::int64_t faults_before = pool.stats().faults;
  std::vector<std::int64_t> per_step;
  const std::int64_t steps_before = kernel.stats().slide_steps;
  for (TouchEvent e : slide) {
    e.timestamp_us += span;
    const bool steady = e.phase == TouchPhase::kMoved &&
                        kernel.stats().slide_steps > steps_before;
    const std::int64_t before = t_allocations;
    kernel.OnTouch(e);
    if (steady) {
      per_step.push_back(t_allocations - before);
    }
  }
  EXPECT_GT(kernel.results().size(), 0);
  EXPECT_EQ(pool.stats().faults, faults_before);
  *level_used = (*kernel.object_stats(*id))->last_level_used;
  return per_step;
}

void ExpectNoAllocations(const std::vector<std::int64_t>& per_step) {
  ASSERT_GE(per_step.size(), 50u);
  std::int64_t total = 0;
  std::int64_t steps_that_allocate = 0;
  for (const std::int64_t n : per_step) {
    total += n;
    steps_that_allocate += n > 0 ? 1 : 0;
  }
  EXPECT_EQ(total, 0) << steps_that_allocate << " of " << per_step.size()
                      << " steady slide steps allocate";
}

TEST(AllocTest, SampleLevelSummaryStepsAllocateNothing) {
  int level = 0;
  ExpectNoAllocations(
      SecondSlideAllocations(KernelConfig{}, ActionConfig::Summary(4096),
                             &level));
  EXPECT_GT(level, 0);  // A sample level served the slide.
}

TEST(AllocTest, BaseBandSummaryStepsAllocateNothing) {
  KernelConfig config;
  config.use_sampling = false;
  int level = -1;
  ExpectNoAllocations(
      SecondSlideAllocations(config, ActionConfig::Summary(16), &level));
  EXPECT_EQ(level, 0);
}

TEST(AllocTest, ScanStepsAllocateNothing) {
  int level = 0;
  ExpectNoAllocations(
      SecondSlideAllocations(KernelConfig{}, ActionConfig::Scan(), &level));
}

TEST(AllocTest, AggregateStepsAllocateNothing) {
  // The aggregate's dedup set takes a node for each row it is fed first;
  // the second slide retraces the first, so it feeds none.
  int level = 0;
  ExpectNoAllocations(SecondSlideAllocations(
      KernelConfig{}, ActionConfig::Aggregate(exec::AggKind::kSum), &level));
}

TEST(AllocTest, WorkerDrainsABacklogWithoutAllocating) {
  using server::api::SubmitBatchReq;
  server::TouchServer srv(server::RelaxedConfig(/*workers=*/1));
  ASSERT_TRUE(srv.RegisterTable(DoubleTable()).ok());
  ASSERT_TRUE(srv.Start().ok());

  constexpr int kSessions = 16;
  // Past the first result trim (8,192 results per session): the stream
  // has grown to its largest capacity before anything is counted.
  constexpr std::int64_t kWarmupMoves = 8'704;
  constexpr std::int64_t kBacklogMoves = 1'024;
  constexpr std::size_t kBatch = 512;
  const double hz = KernelConfig{}.device.touch_event_hz;
  std::vector<server::SessionId> sessions;
  std::vector<std::vector<TouchEvent>> slides;
  for (int s = 0; s < kSessions; ++s) {
    const auto id = server::OpenWithObject(
        srv, server::ColumnObject("t", "v"), ActionConfig::Summary(4096));
    ASSERT_TRUE(id.ok()) << id.status();
    sessions.push_back(*id);
    slides.push_back(BackAndForth(kWarmupMoves + kBacklogMoves, 10.0, hz,
                                  /*start_us=*/s * 1'000));
  }
  // Submits events [first, last) of every session's slide, unpaced and
  // interleaved batch by batch, as a burst of clients would.
  const auto submit = [&](std::size_t first, std::size_t last) {
    for (std::size_t at = first; at < last; at += kBatch) {
      for (int s = 0; s < kSessions; ++s) {
        SubmitBatchReq req{.session = sessions[s], .paced = false, .events = {}};
        for (std::size_t i = at; i < std::min(at + kBatch, last); ++i) {
          req.events.push_back(server::api::ToWire(slides[s][i]));
        }
        const auto resp = srv.Call(req);
        ASSERT_TRUE(resp.ok()) << resp.status();
        ASSERT_EQ(resp->rejected, 0);
      }
    }
  };

  // Warm-up, a batch per session at a time so no queue reaches its bound.
  const std::size_t warm_end = 1 + static_cast<std::size_t>(kWarmupMoves);
  for (std::size_t at = 0; at < warm_end; at += kBatch) {
    submit(at, std::min(at + kBatch, warm_end));
    ASSERT_TRUE(srv.Drain().ok());
  }
  const std::int64_t executed_before = srv.stats().executed;

  const std::int64_t global_before = g_allocations.load();
  const std::int64_t mine_before = t_allocations;
  submit(warm_end, slides[0].size());
  ASSERT_TRUE(srv.Drain().ok());
  const std::int64_t worker_allocations =
      (g_allocations.load() - global_before) - (t_allocations - mine_before);

  const server::ServerStatsSnapshot stats = srv.stats();
  EXPECT_EQ(stats.executed - executed_before, kSessions * kBacklogMoves);
  EXPECT_EQ(stats.dropped_quanta, 0);
  EXPECT_EQ(worker_allocations, 0);
  ASSERT_TRUE(srv.Stop().ok());
}

}  // namespace
}  // namespace dbtouch
