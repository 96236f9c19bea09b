// Tests for the deadline-sacred partial-answer path: scheduler ordering
// of refinement quanta, the wire protocol's append-only partial-answer
// extension (old clients must keep decoding), and the end-to-end server
// contract — at deadline pressure a fetch-stalled quantum answers
// coarsely on time, and every partial answer is later refined to a
// result bit-identical to a blocking full-fidelity execution.

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <map>
#include <mutex>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/block_provider.h"
#include "core/kernel.h"
#include "core/result_stream.h"
#include "exec/summary.h"
#include "gated_provider.h"
#include "gateway/wire.h"
#include "remote/remote_store.h"
#include "server/api.h"
#include "server/frame_scheduler.h"
#include "server/server_stats.h"
#include "server/touch_server.h"
#include "server_harness.h"
#include "sim/motion_profile.h"
#include "sim/trace_builder.h"
#include "storage/datagen.h"

namespace dbtouch::server {
namespace {

using core::ActionConfig;
using core::Kernel;
using sim::MotionProfile;
using sim::PointCm;
using sim::TraceBuilder;
using storage::Column;
using storage::Table;
using touch::RectCm;

// ---- FrameScheduler: refinement re-queue ordering ---------------------------

TouchTask MakeTask(std::int64_t session, sim::Micros deadline,
                   sim::Micros release = 0) {
  TouchTask task;
  task.session_id = session;
  task.release_us = release;
  task.deadline_us = deadline;
  return task;
}

TouchTask MakeRefineTask(std::int64_t session, sim::Micros deadline) {
  TouchTask task = MakeTask(session, deadline);
  task.refine = true;
  return task;
}

TEST(RefinementSchedulingTest, PushFrontRunsAheadOfUnreleasedTouches) {
  // The session's next touch is not released for another 100 ms. A
  // refinement whose blocks just landed must not wait it out: PushFront
  // puts it at the head and it pops immediately.
  FrameScheduler scheduler;
  const sim::Micros now = SteadyNowUs();
  scheduler.Push(MakeTask(1, now + 200'000, now + 100'000));
  scheduler.PushFront(MakeRefineTask(1, now + 5'000));
  const auto popped = scheduler.PopRunnable();
  ASSERT_TRUE(popped.has_value());
  EXPECT_TRUE(popped->refine);
  scheduler.OnTaskDone(1);
  // The ordinary touch is still queued, gated by its release time.
  EXPECT_EQ(scheduler.PendingOf(1), 1u);
}

TEST(RefinementSchedulingTest, PushFrontJumpsAheadOfReleasedQueueToo) {
  FrameScheduler scheduler;
  const sim::Micros now = SteadyNowUs();
  scheduler.Push(MakeTask(1, now + 50'000));
  scheduler.Push(MakeTask(1, now + 60'000));
  scheduler.PushFront(MakeRefineTask(1, now + 70'000));
  // Within a session the queue is strict FIFO, so front position — not
  // deadline — decides: the refinement runs first.
  const auto popped = scheduler.PopRunnable();
  ASSERT_TRUE(popped.has_value());
  EXPECT_TRUE(popped->refine);
  scheduler.OnTaskDone(1);
  const auto next = scheduler.PopRunnable();
  ASSERT_TRUE(next.has_value());
  EXPECT_FALSE(next->refine);
  EXPECT_EQ(next->deadline_us, now + 50'000);
  scheduler.OnTaskDone(1);
}

TEST(RefinementSchedulingTest, RefinementsCompeteByDeadlineAcrossSessions) {
  // Across sessions EDF still rules: a refinement with a later (EWMA-
  // extended) deadline yields to another session's earlier-deadline touch.
  FrameScheduler scheduler;
  const sim::Micros now = SteadyNowUs();
  scheduler.PushFront(MakeRefineTask(1, now + 300'000));
  scheduler.Push(MakeTask(2, now + 100'000));
  const auto first = scheduler.PopRunnable();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->session_id, 2);
  EXPECT_FALSE(first->refine);
  const auto second = scheduler.PopRunnable();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->session_id, 1);
  EXPECT_TRUE(second->refine);
  scheduler.OnTaskDone(1);
  scheduler.OnTaskDone(2);
}

TEST(RefinementSchedulingTest, ParkedSessionHoldsQueuedRefinement) {
  // A refinement pushed to a session parked on a classic fetch waits for
  // the unpark — the parked resume quantum owns the kernel's pending
  // queue and must re-enter first.
  FrameScheduler scheduler;
  const sim::Micros now = SteadyNowUs();
  scheduler.Push(MakeTask(1, now + 10'000));
  auto popped = scheduler.PopRunnable();
  ASSERT_TRUE(popped.has_value());
  scheduler.ParkForFetch(std::move(*popped));
  scheduler.PushFront(MakeRefineTask(1, now + 5'000));
  scheduler.Push(MakeTask(2, now + 500'000));
  const auto other = scheduler.PopRunnable();
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(other->session_id, 2);  // Session 1 is parked; skipped.
  scheduler.OnTaskDone(2);
  scheduler.Unpark(1);
  const auto refine = scheduler.PopRunnable();
  ASSERT_TRUE(refine.has_value());
  EXPECT_EQ(refine->session_id, 1);
  EXPECT_TRUE(refine->refine);
  scheduler.OnTaskDone(1);
}

// ---- Wire protocol: append-only partial-answer extension --------------------

api::SessionSnapshotResp SampleSnapshot() {
  api::SessionSnapshotResp resp;
  resp.session = 7;
  api::ObjectInfo object;
  object.object = 3;
  object.kind = 0;
  object.table = "t";
  object.column = 0;
  object.frame = {2.0, 1.0, 2.0, 10.0};
  object.tuple_count = 1'000;
  resp.objects.push_back(object);
  resp.touch_events = 12;
  resp.gesture_events = 9;
  resp.entries_returned = 5;
  resp.rows_scanned = 40;
  resp.result_count = 2;
  api::ResultInfo full;
  full.object = 3;
  full.row = 11;
  full.value = 11.0;
  api::ResultInfo partial;
  partial.object = 3;
  partial.row = 512;
  partial.value = 500.0;
  partial.approximate = true;
  partial.partial = true;
  partial.refine_seq = 2;
  resp.results.push_back(full);
  resp.results.push_back(partial);
  resp.partial_answers = 3;
  resp.refinements = 2;
  return resp;
}

/// Bytes the partial-answer extension appends after the v1 payload:
/// partial_answers (i64) + refinements (i64) + flag count (u32) + one
/// (bool, i64) pair per result.
std::size_t ExtensionBytes(const api::SessionSnapshotResp& resp) {
  return 8 + 8 + 4 + resp.results.size() * (1 + 8);
}

TEST(PartialAnswerWireTest, SnapshotRoundTripPreservesPartialFlags) {
  const api::SessionSnapshotResp resp = SampleSnapshot();
  gateway::WireWriter w;
  Encode(resp, w);
  gateway::WireReader r(w.buffer());
  api::SessionSnapshotResp decoded;
  ASSERT_TRUE(Decode(r, &decoded).ok());
  EXPECT_EQ(decoded, resp);
  EXPECT_TRUE(decoded.results[1].partial);
  EXPECT_EQ(decoded.results[1].refine_seq, 2);
}

TEST(PartialAnswerWireTest, OldClientDecodesV1PrefixWithoutExtension) {
  // An old client's decoder consumed exactly the v1 payload and knows
  // nothing of the trailing extension. Emulate it by handing the new
  // decoder only the v1 prefix of a new server's frame: decoding must
  // succeed and the partial-answer fields must keep their defaults.
  const api::SessionSnapshotResp resp = SampleSnapshot();
  gateway::WireWriter w;
  Encode(resp, w);
  const std::string& buffer = w.buffer();
  ASSERT_GT(buffer.size(), ExtensionBytes(resp));
  const std::string_view v1_prefix(buffer.data(),
                                   buffer.size() - ExtensionBytes(resp));
  gateway::WireReader r(v1_prefix);
  api::SessionSnapshotResp decoded;
  ASSERT_TRUE(Decode(r, &decoded).ok());
  // Every v1 field survived...
  EXPECT_EQ(decoded.session, resp.session);
  EXPECT_EQ(decoded.objects, resp.objects);
  EXPECT_EQ(decoded.result_count, resp.result_count);
  ASSERT_EQ(decoded.results.size(), resp.results.size());
  EXPECT_EQ(decoded.results[0].row, resp.results[0].row);
  EXPECT_EQ(decoded.results[1].row, resp.results[1].row);
  // ...and the extension fields are the zero defaults, not garbage.
  EXPECT_EQ(decoded.partial_answers, 0);
  EXPECT_EQ(decoded.refinements, 0);
  EXPECT_FALSE(decoded.results[1].partial);
  EXPECT_EQ(decoded.results[1].refine_seq, 0);
}

TEST(PartialAnswerWireTest, TruncatedExtensionFailsCleanly) {
  // A frame cut mid-extension is malformed, not a v1 frame: the decoder
  // must return an error (and not crash), never half-applied flags.
  const api::SessionSnapshotResp resp = SampleSnapshot();
  gateway::WireWriter w;
  Encode(resp, w);
  const std::string& buffer = w.buffer();
  const std::string_view cut(buffer.data(), buffer.size() - 1);
  gateway::WireReader r(cut);
  api::SessionSnapshotResp decoded;
  EXPECT_FALSE(Decode(r, &decoded).ok());
}

// ---- End-to-end: deadline-preserving partial dispatch -----------------------

constexpr std::int64_t kRows = 20'000;
constexpr std::int64_t kRowsPerBlock = 1'024;
constexpr double kFetchLatencyMs = 12.0;
constexpr sim::Micros kBudgetUs = 5'000;

/// Async provider with a fixed per-fetch latency in front of `inner`:
/// every cold block costs kFetchLatencyMs, far beyond the frame budget, so
/// a classic park guarantees a deadline miss while a partial answer meets
/// it.
class SlowTierProvider final : public cache::BlockProvider {
 public:
  explicit SlowTierProvider(std::shared_ptr<cache::BlockProvider> inner)
      : inner_(std::move(inner)) {}

  const cache::BlockGeometry& geometry() const override {
    return inner_->geometry();
  }
  const storage::Dictionary* dictionary() const override {
    return inner_->dictionary();
  }
  bool async() const override { return true; }

  Result<std::vector<std::byte>> Fetch(std::int64_t block) override {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(kFetchLatencyMs));
    return inner_->Fetch(block);
  }

 private:
  std::shared_ptr<cache::BlockProvider> inner_;
};

/// The backing store behind SlowTierProvider: the in-memory table, or the
/// same column served by a remote::RemoteServer (paper Section 4's tier).
enum class ColdTier { kTable, kRemote };

std::shared_ptr<Table> SequenceTable(const std::string& name) {
  std::vector<Column> cols;
  cols.push_back(storage::GenSequenceInt64("v", kRows, 0, 1));
  auto table = Table::FromColumns(name, std::move(cols));
  EXPECT_TRUE(table.ok());
  return *table;
}

TouchServerConfig PartialAnswerConfig(bool partial_answers) {
  TouchServerConfig config;
  config.num_workers = 2;
  config.partial_answers = partial_answers;
  config.base_frame_budget_us = kBudgetUs;
  config.min_frame_budget_us = kBudgetUs;
  config.est_row_ns = 0.0;
  config.drop_slack_us = 3'600'000'000;  // Never drop: count misses instead.
  config.session_defaults.buffer.rows_per_block = kRowsPerBlock;
  config.session_defaults.buffer.fetch.num_fetchers = 2;
  // Isolate the partial-answer mechanism from prefetch warm-ups.
  config.session_defaults.prefetch_enabled = false;
  return config;
}

struct ArmResult {
  std::int64_t executed = 0;
  std::int64_t misses = 0;
  std::int64_t partials = 0;
  std::int64_t refinements = 0;
  std::int64_t refinements_shed = 0;
};

/// Runs the cold-fault regime against one server arm: a warm-up tap that
/// seeds the fetch-latency EWMA (deadlines extend only by MEASURED
/// latency) and warms the first block, then a paced slide over the cold
/// column. Returns the slide's stats delta; `inspect` (optional) runs
/// against the session kernel after Drain.
ArmResult RunColdSlide(
    bool partial_answers,
    const std::function<void(TouchServer&, SessionId)>& inspect = {},
    ColdTier tier = ColdTier::kTable) {
  auto table = SequenceTable("cold");
  // Declared before the server so it outlives every fetch the server runs.
  remote::RemoteServer remote_server(table->ColumnViewAt(0));
  TouchServer server(PartialAnswerConfig(partial_answers));
  EXPECT_TRUE(server.RegisterTable(table).ok());
  std::shared_ptr<cache::BlockProvider> inner;
  if (tier == ColdTier::kRemote) {
    inner = std::make_shared<cache::RemoteBlockProvider>(&remote_server,
                                                         kRowsPerBlock);
  } else {
    inner = std::make_shared<cache::TableBlockProvider>(table, 0,
                                                        kRowsPerBlock);
  }
  auto provider = std::make_shared<SlowTierProvider>(std::move(inner));
  EXPECT_TRUE(server.shared().SetColumnProvider("cold", 0, provider).ok());
  EXPECT_TRUE(server.Start().ok());

  const auto session = OpenWithObject(server, ColumnObject("cold", "v"),
                                      ActionConfig::Scan());
  EXPECT_TRUE(session.ok());

  Kernel reference;
  TraceBuilder builder(reference.device());
  EXPECT_TRUE(server
                  .Call(api::SubmitBatchReq{
                      .session = *session,
                      .paced = false,
                      .events = api::ToWire(
                          builder.Tap("warm", PointCm{3.0, 1.0}))})
                  .ok());
  EXPECT_TRUE(server.Drain().ok());
  const ServerStatsSnapshot before = server.stats();

  EXPECT_TRUE(server
                  .Call(api::SubmitBatchReq{
                      .session = *session,
                      .paced = true,
                      .events = api::ToWire(builder.Slide(
                          "slide", PointCm{3.0, 1.0}, PointCm{3.0, 11.0},
                          MotionProfile::Constant(1.0)))})
                  .ok());
  EXPECT_TRUE(server.Drain().ok());
  const ServerStatsSnapshot after = server.stats();

  ArmResult result;
  result.executed = after.executed - before.executed;
  result.misses = after.deadline_misses - before.deadline_misses;
  result.partials = after.partial_answers - before.partial_answers;
  result.refinements = after.refinements - before.refinements;
  result.refinements_shed =
      after.refinements_shed - before.refinements_shed;
  if (inspect) {
    inspect(server, *session);
  }
  EXPECT_TRUE(server.Stop().ok());
  return result;
}

TEST(PartialAnswerServerTest, ClassicParkingMissesDeadlinesUnderColdFaults) {
  // Control arm: with partial answers off, every cold stall parks the
  // session for a fetch that alone exceeds the frame budget — misses are
  // structural, not scheduling noise.
  const ArmResult classic = RunColdSlide(/*partial_answers=*/false);
  ASSERT_GT(classic.executed, 0);
  EXPECT_GE(classic.misses * 4, classic.executed);  // >= 25% missed.
  EXPECT_EQ(classic.partials, 0);
  EXPECT_EQ(classic.refinements, 0);
}

TEST(PartialAnswerServerTest, PartialDispatchPreservesDeadlinesAndConverges) {
  Kernel full_fidelity;
  ASSERT_TRUE(full_fidelity.RegisterTable(SequenceTable("cold")).ok());
  const auto ref_object = full_fidelity.CreateColumnObject(
      "cold", "v", RectCm{2.0, 1.0, 2.0, 10.0});
  ASSERT_TRUE(ref_object.ok());
  ASSERT_TRUE(
      full_fidelity.SetAction(*ref_object, ActionConfig::Scan()).ok());
  TraceBuilder ref_builder(full_fidelity.device());
  full_fidelity.Replay(ref_builder.Tap("warm", PointCm{3.0, 1.0}));
  full_fidelity.Replay(ref_builder.Slide("slide", PointCm{3.0, 1.0},
                                         PointCm{3.0, 11.0},
                                         MotionProfile::Constant(1.0)));
  // The blocking reference kernel's answers, by base row.
  std::map<storage::RowId, std::int64_t> reference_values;
  for (const auto& item : full_fidelity.results().items()) {
    if (item.kind == core::ResultKind::kValue) {
      reference_values[item.row] = item.value.AsInt();
    }
  }
  ASSERT_FALSE(reference_values.empty());

  // The same slide over both backing stores: the in-memory table, and the
  // column behind a RemoteServer (Section 4's remote tier, for real).
  for (const ColdTier tier : {ColdTier::kTable, ColdTier::kRemote}) {
    SCOPED_TRACE(tier == ColdTier::kRemote ? "remote tier" : "table tier");
    const ArmResult partial = RunColdSlide(
        /*partial_answers=*/true,
        [&](TouchServer& server, SessionId session) {
          // Every partial answer must have converged: a later full-fidelity
          // item for the same object and row, bit-identical to the blocking
          // reference kernel's value.
          ASSERT_TRUE(
              server
                  .WithSession(session,
                               [&](Kernel& kernel) {
                                 const auto& items =
                                     kernel.results().items();
                                 std::int64_t checked = 0;
                                 for (std::size_t i = 0; i < items.size();
                                      ++i) {
                                   if (!items[i].partial) {
                                     continue;
                                   }
                                   bool refined = false;
                                   for (std::size_t j = i + 1;
                                        j < items.size(); ++j) {
                                     if (items[j].partial ||
                                         items[j].object !=
                                             items[i].object ||
                                         items[j].row != items[i].row) {
                                       continue;
                                     }
                                     refined = true;
                                     ASSERT_TRUE(reference_values.count(
                                         items[j].row));
                                     EXPECT_EQ(
                                         items[j].value.AsInt(),
                                         reference_values[items[j].row]);
                                     break;
                                   }
                                   EXPECT_TRUE(refined)
                                       << "partial answer at row "
                                       << items[i].row << " never refined";
                                   ++checked;
                                 }
                                 EXPECT_GT(checked, 0);
                               })
                  .ok());
          // The api layer reports the same story: partial counters are up
          // and the result tail carries partial-flagged entries.
          api::SessionSnapshotReq req;
          req.session = session;
          req.max_results = 100'000;
          const auto resp = server.Call(req);
          ASSERT_TRUE(resp.ok());
          EXPECT_GT(resp->partial_answers, 0);
          EXPECT_GT(resp->refinements, 0);
          bool saw_partial_flag = false;
          for (const auto& info : resp->results) {
            saw_partial_flag = saw_partial_flag || info.partial;
          }
          EXPECT_TRUE(saw_partial_flag);
        },
        tier);

    ASSERT_GT(partial.executed, 0);
    // The deadline is sacred: coarse-from-resident answers keep the touch
    // inside its frame budget. A small allowance absorbs scheduler jitter
    // on loaded CI runners; the classic arm misses >= 25% structurally.
    EXPECT_LE(partial.misses * 10, partial.executed);
    EXPECT_GT(partial.partials, 0);
    // Convergence: every partial answer was refined (none shed — the tier
    // serves every fetch eventually).
    EXPECT_EQ(partial.partials,
              partial.refinements + partial.refinements_shed);
    EXPECT_EQ(partial.refinements_shed, 0);
  }
}

// ---- Kernel: a partial answer and its refinement, with no clock -----------

/// Counts fetch completions; Wait() returns once `n` have settled.
class FetchLatch {
 public:
  storage::PagedColumnSource::FetchCompletion Done() {
    return [this](const Status& status) {
      const std::lock_guard<std::mutex> lock(mu_);
      ok_ = ok_ && status.ok();
      ++settled_;
      cv_.notify_all();
    };
  }
  bool Wait(std::int64_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return settled_ >= n; });
    return ok_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::int64_t settled_ = 0;
  bool ok_ = true;
};

std::uint64_t Bits(const storage::Value& v) {
  return std::bit_cast<std::uint64_t>(v.ToDouble());
}

/// One slow slide over a column behind a GatedProvider: the first slide
/// step suspends, AnswerPartialFromResident answers it from level 1,
/// RefineNext stays cold until the gate opens and then appends the answer
/// a kernel over the in-memory column gives for the same touch.
void PartialThenRefine(const ActionConfig& action) {
  constexpr std::int64_t kGatedRows = 1'024;  // ~2 rows per position.
  constexpr std::int64_t kGatedRowsPerBlock = 64;
  std::vector<Column> cols;
  cols.push_back(
      storage::GenGaussianDouble("v", kGatedRows, 100.0, 10.0, 7));
  const std::shared_ptr<Table> table =
      *Table::FromColumns("g", std::move(cols));
  const RectCm frame{2.0, 1.0, 2.0, 10.0};

  core::KernelConfig config;
  config.buffer.rows_per_block = kGatedRowsPerBlock;
  config.prefetch_enabled = false;
  Kernel kernel(config);
  ASSERT_TRUE(kernel.RegisterTable(table).ok());
  auto gate = std::make_shared<cache::GatedProvider>(
      std::make_shared<cache::TableBlockProvider>(table, 0,
                                                  kGatedRowsPerBlock));
  ASSERT_TRUE(
      kernel.shared_state()->SetColumnProvider("g", 0, gate).ok());
  // Opens the gate on every way out, so no fetcher is left waiting when
  // the kernel's pool shuts down.
  const std::unique_ptr<cache::GatedProvider, void (*)(cache::GatedProvider*)>
      open_on_exit(gate.get(), [](cache::GatedProvider* g) { g->OpenGate(); });
  const auto object = kernel.CreateColumnObject("g", "v", frame);
  ASSERT_TRUE(object.ok()) << object.status();
  ASSERT_TRUE(kernel.SetAction(*object, action).ok());

  Kernel reference(config);
  ASSERT_TRUE(reference.RegisterTable(table).ok());
  const auto ref_object = reference.CreateColumnObject("g", "v", frame);
  ASSERT_TRUE(ref_object.ok());
  ASSERT_TRUE(reference.SetAction(*ref_object, action).ok());

  // 0.92 cm in 5 s: well under one touch position per event, so a
  // summary reads its band from the base data (level 0).
  TraceBuilder builder(kernel.device());
  const sim::GestureTrace slide =
      builder.Slide("slow", PointCm{3.0, 2.08}, PointCm{3.0, 3.0},
                    MotionProfile::Constant(5.0));
  core::TouchStall stall;
  std::size_t fed = 0;
  core::TouchOutcome outcome = core::TouchOutcome::kCompleted;
  while (outcome == core::TouchOutcome::kCompleted &&
         fed < slide.events.size()) {
    outcome = kernel.OnTouchAsync(slide.events[fed++], &stall);
  }
  ASSERT_EQ(outcome, core::TouchOutcome::kSuspended);
  ASSERT_EQ(kernel.results().size(), 0);
  for (std::size_t i = 0; i < fed; ++i) {
    reference.OnTouch(slide.events[i]);
  }
  ASSERT_EQ(reference.results().size(), 1);
  const core::ResultItem want = reference.results().items()[0];
  EXPECT_FALSE(want.approximate);  // Level 0 for a summary too.

  // The partial answer: level 1, straight from the hierarchy.
  ASSERT_TRUE(kernel.AnswerPartialFromResident());
  EXPECT_FALSE(kernel.has_pending_gestures());
  ASSERT_EQ(kernel.results().size(), 1);
  const core::ResultItem partial = kernel.results().items()[0];
  EXPECT_TRUE(partial.partial);
  EXPECT_TRUE(partial.approximate);
  EXPECT_EQ(partial.refine_seq, 0);
  EXPECT_EQ(partial.row, want.row);
  const auto hierarchy = kernel.shared_state()->GetOrBuildHierarchy("g", 0);
  ASSERT_TRUE(hierarchy.ok());
  const sampling::SampleHierarchy& h = **hierarchy;
  const storage::RowId sample_row = h.FromBaseRow(1, partial.row);
  // The touched row (131) tells levels 0, 1 and 2 apart.
  ASSERT_NE(h.ToBaseRow(1, sample_row), partial.row);
  ASSERT_NE(h.ToBaseRow(1, sample_row),
            h.ToBaseRow(2, h.FromBaseRow(2, partial.row)));
  if (action.kind == core::ActionKind::kScan) {
    EXPECT_EQ(Bits(partial.value),
              Bits(h.LevelView(1).GetValue(sample_row)));
  } else {
    exec::InteractiveSummaryOp op(h.LevelView(1), action.summary_k,
                                  action.agg);
    const exec::SummaryResult sr = op.ComputeAt(sample_row);
    EXPECT_EQ(Bits(partial.value), Bits(storage::Value(sr.value)));
    EXPECT_EQ(partial.band_first, h.ToBaseRow(1, sr.first));
    EXPECT_EQ(partial.rows_aggregated, sr.rows);
  }

  // Still cold before the gate opens, even with its fetches started.
  ASSERT_TRUE(kernel.has_refinements());
  ASSERT_EQ(kernel.RefineNext(&stall), core::RefineOutcome::kStillCold);
  ASSERT_GT(stall.total_blocks(), 0);
  FetchLatch latch;
  for (const core::TouchStall::Entry& entry : stall.entries) {
    for (const std::int64_t block : entry.blocks) {
      ASSERT_TRUE(entry.source->StartFetch(block, latch.Done()).ok());
    }
  }
  ASSERT_EQ(kernel.RefineNext(&stall), core::RefineOutcome::kStillCold);
  gate->OpenGate();
  ASSERT_TRUE(latch.Wait(stall.total_blocks()));

  ASSERT_EQ(kernel.RefineNext(&stall), core::RefineOutcome::kRefined);
  ASSERT_EQ(kernel.results().size(), 2);
  const core::ResultItem refined = kernel.results().items()[1];
  EXPECT_FALSE(refined.partial);
  EXPECT_EQ(refined.refine_seq, 3);  // Two cold attempts before it.
  EXPECT_EQ(refined.kind, want.kind);
  EXPECT_EQ(refined.row, want.row);
  EXPECT_EQ(refined.attribute, want.attribute);
  EXPECT_EQ(Bits(refined.value), Bits(want.value));
  EXPECT_EQ(refined.band_first, want.band_first);
  EXPECT_EQ(refined.band_last, want.band_last);
  EXPECT_EQ(refined.rows_aggregated, want.rows_aggregated);
  EXPECT_EQ(refined.approximate, want.approximate);
  EXPECT_EQ(kernel.RefineNext(&stall), core::RefineOutcome::kIdle);
  EXPECT_EQ(kernel.stats().partial_answers, 1);
  EXPECT_EQ(kernel.stats().refinements, 1);
}

TEST(PartialAnswerKernelTest, ScanAnswersFromLevelOneThenRefinesExactly) {
  PartialThenRefine(ActionConfig::Scan());
}

TEST(PartialAnswerKernelTest, SummaryAnswersFromLevelOneThenRefinesExactly) {
  PartialThenRefine(ActionConfig::Summary(10));
}

}  // namespace
}  // namespace dbtouch::server
