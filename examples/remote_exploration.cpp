// Remote processing (paper Section 4): "the server may store the base data
// and the big samples, while the touch device may store only small
// samples ... use local data to feed partial answers, while in the mean
// time more fine-grained answers are produced and delivered by the
// server."
//
// The base column lives behind a remote::RemoteServer. The touch server
// keeps the column's sample levels and faults base blocks through a
// cache::RemoteBlockProvider; every remote read pays a 20 ms round trip
// (injected by the decorator below). One slide is replayed twice against
// a 10 ms frame budget:
//
//   1. partial answers off: each cold block parks the touch until its
//      read lands, so touches miss their frame;
//   2. partial answers on: a touch whose read would miss the frame
//      answers at once from the resident sample level, and is refined to
//      the exact value when the block arrives.
//
// Exits non-zero unless the second run gave partial answers and refined
// every one of them.
//
// Build & run:  ./build/example_remote_exploration

#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "cache/block_provider.h"
#include "core/kernel.h"
#include "obs/histogram.h"
#include "remote/remote_store.h"
#include "server/api.h"
#include "server/touch_server.h"
#include "sim/motion_profile.h"
#include "sim/trace_builder.h"
#include "storage/datagen.h"

using dbtouch::Result;
using dbtouch::cache::BlockGeometry;
using dbtouch::cache::BlockProvider;
using dbtouch::cache::RemoteBlockProvider;
using dbtouch::core::ActionConfig;
using dbtouch::core::Kernel;
using dbtouch::obs::HistogramSnapshot;
using dbtouch::remote::RemoteServer;
using dbtouch::server::ServerStatsSnapshot;
using dbtouch::server::TouchServer;
using dbtouch::server::TouchServerConfig;
using dbtouch::sim::MotionProfile;
using dbtouch::sim::PointCm;
using dbtouch::sim::TraceBuilder;
using dbtouch::storage::Column;
using dbtouch::storage::Table;
namespace api = dbtouch::server::api;

namespace {

constexpr std::int64_t kRows = 1'000'000;
constexpr std::int64_t kRowsPerBlock = 8'192;
constexpr double kRoundTripMs = 20.0;
constexpr dbtouch::sim::Micros kFrameBudgetUs = 10'000;

/// The network between device and server: every read of `inner` waits one
/// round trip first. A ranged read is one request, so one round trip.
class RoundTripProvider final : public BlockProvider {
 public:
  explicit RoundTripProvider(std::shared_ptr<BlockProvider> inner)
      : inner_(std::move(inner)) {}

  const BlockGeometry& geometry() const override { return inner_->geometry(); }
  const dbtouch::storage::Dictionary* dictionary() const override {
    return inner_->dictionary();
  }
  bool async() const override { return true; }
  Result<std::vector<std::byte>> Fetch(std::int64_t block) override {
    Wait();
    return inner_->Fetch(block);
  }
  Result<std::vector<std::byte>> ReadRange(std::int64_t first_block,
                                           std::int64_t count) override {
    Wait();
    return inner_->ReadRange(first_block, count);
  }

 private:
  static void Wait() {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(kRoundTripMs));
  }

  std::shared_ptr<BlockProvider> inner_;
};

/// Percentile (ms) of the touches recorded between two snapshots of one
/// histogram.
double DeltaPercentileMs(const HistogramSnapshot& before,
                         const HistogramSnapshot& after, double p) {
  HistogramSnapshot delta = after;
  delta.count -= before.count;
  for (std::size_t b = 0; b < before.buckets.size(); ++b) {
    delta.buckets[b] -= before.buckets[b];
  }
  return static_cast<double>(delta.Percentile(p)) / 1e3;
}

struct RunStats {
  std::int64_t touches = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::int64_t misses = 0;
  std::int64_t partials = 0;
  std::int64_t refinements = 0;
};

/// Replays the slide against a fresh touch server whose column is served
/// remotely; false if any step of the setup failed.
bool Run(bool partial_answers, RunStats* out) {
  std::vector<Column> cols;
  cols.push_back(dbtouch::storage::MakePaperEvalColumn(kRows));
  const auto table = Table::FromColumns("remote", std::move(cols));
  if (!table.ok()) {
    return false;
  }
  // Declared before the touch server so it outlives every read.
  RemoteServer remote((*table)->ColumnViewAt(0));

  TouchServerConfig config;
  config.num_workers = 2;
  config.partial_answers = partial_answers;
  config.base_frame_budget_us = kFrameBudgetUs;
  config.min_frame_budget_us = kFrameBudgetUs;
  config.est_row_ns = 0.0;
  config.drop_slack_us = 3'600'000'000;  // Never drop: count misses.
  config.session_defaults.buffer.rows_per_block = kRowsPerBlock;
  // No warm-ups along the slide: every block the finger reaches is a
  // remote read at touch time.
  config.session_defaults.prefetch_enabled = false;
  TouchServer server(config);
  if (!server.RegisterTable(*table).ok() ||
      !server.shared()
           .SetColumnProvider(
               "remote", 0,
               std::make_shared<RoundTripProvider>(
                   std::make_shared<RemoteBlockProvider>(&remote,
                                                         kRowsPerBlock)))
           .ok() ||
      !server.Start().ok()) {
    return false;
  }
  const auto open = server.Call(api::OpenSessionReq{});
  if (!open.ok()) {
    return false;
  }
  const api::SessionId session = open->session;
  const auto object = server.Call(
      api::CreateObjectReq{.session = session,
                           .kind = 0,
                           .table = "remote",
                           .column = (*table)->schema().field(0).name,
                           .frame = {2.0, 1.0, 2.0, 10.0}});
  if (!object.ok() ||
      !server
           .Call(api::SetActionReq{.session = session,
                                   .object = object->object,
                                   .action = api::ToWire(ActionConfig::Scan())})
           .ok()) {
    return false;
  }

  Kernel reference;  // Device geometry for trace building.
  TraceBuilder builder(reference.device());
  // A first tap measures the round trip: the server extends a deadline
  // only by a fetch latency it has seen.
  if (!server
           .Call(api::SubmitBatchReq{
               .session = session,
               .paced = false,
               .events = api::ToWire(builder.Tap("warm", PointCm{3.0, 1.0}))})
           .ok() ||
      !server.Drain().ok()) {
    return false;
  }
  const ServerStatsSnapshot before = server.stats();
  if (!server
           .Call(api::SubmitBatchReq{
               .session = session,
               .paced = true,
               .events = api::ToWire(builder.Slide(
                   "slide", PointCm{3.0, 1.0}, PointCm{3.0, 11.0},
                   MotionProfile::Constant(2.0)))})
           .ok() ||
      !server.Drain().ok()) {
    return false;
  }
  const ServerStatsSnapshot after = server.stats();
  out->touches = after.executed - before.executed;
  out->p50_ms = DeltaPercentileMs(before.stages.e2e, after.stages.e2e, 0.5);
  out->p99_ms = DeltaPercentileMs(before.stages.e2e, after.stages.e2e, 0.99);
  out->misses = after.deadline_misses - before.deadline_misses;
  out->partials = after.partial_answers - before.partial_answers;
  out->refinements = after.refinements - before.refinements;
  return server.Stop().ok();
}

}  // namespace

int main() {
  std::printf(
      "%lld-row column on a remote server, %.0f ms per remote read, "
      "%.0f ms frame budget.\n\n",
      static_cast<long long>(kRows), kRoundTripMs,
      static_cast<double>(kFrameBudgetUs) / 1e3);
  RunStats r;
  for (const bool partial_answers : {false, true}) {
    if (!Run(partial_answers, &r)) {
      std::fprintf(stderr, "setup failed\n");
      return 1;
    }
    std::printf(
        "partial answers %-3s  %lld touches  p50 %.1f ms  p99 %.1f ms  "
        "%lld over budget  %lld partial  %lld refined\n",
        partial_answers ? "on" : "off", static_cast<long long>(r.touches),
        r.p50_ms, r.p99_ms, static_cast<long long>(r.misses),
        static_cast<long long>(r.partials),
        static_cast<long long>(r.refinements));
  }
  // `r` holds the run with partial answers on.
  if (r.partials == 0 || r.refinements != r.partials) {
    std::fprintf(stderr,
                 "FAILED: expected partial answers, each refined once "
                 "(%lld partial, %lld refined)\n",
                 static_cast<long long>(r.partials),
                 static_cast<long long>(r.refinements));
    return 1;
  }
  std::printf(
      "\nWith partial answers the device shows a coarse value from its\n"
      "sample at once and the server's exact value replaces it when the\n"
      "block arrives: the paper's 'use local data to feed partial\n"
      "answers, while ... more fine-grained answers are produced and\n"
      "delivered by the server.'\n");
  return 0;
}
