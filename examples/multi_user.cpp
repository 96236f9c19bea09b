// Multi-user exploration: eight analysts share one catalog through the
// touch server, each with a private session — own data objects, own
// actions, own result stream — while the frame scheduler keeps every
// session inside its per-touch deadline.
//
//   1. Register two tables once; sample hierarchies are built once and
//      shared by every session that binds them.
//   2. Open eight sessions: half run interactive summaries over "metrics",
//      half run filtered scans over "events".
//   3. Replay each user's slide trace paced at gesture speed, all
//      concurrently, and drain.
//   4. Print per-session results and the server's deadline accounting.
//
// Build & run:  ./build/example_multi_user

#include <cstdio>
#include <vector>

#include "core/kernel.h"
#include "exec/predicate.h"
#include "server/api.h"
#include "server/touch_server.h"
#include "sim/motion_profile.h"
#include "sim/trace_builder.h"
#include "storage/datagen.h"

using dbtouch::core::ActionConfig;
using dbtouch::core::Kernel;
using dbtouch::server::ServerStatsSnapshot;
using dbtouch::server::SessionId;
using dbtouch::server::TouchServer;
using dbtouch::server::TouchServerConfig;
using dbtouch::sim::MotionProfile;
using dbtouch::sim::PointCm;
using dbtouch::sim::TraceBuilder;
using dbtouch::storage::Column;
using dbtouch::storage::Table;
namespace api = dbtouch::server::api;

int main() {
  TouchServerConfig config;
  config.num_workers = 0;  // One worker per core.
  TouchServer server(config);

  {
    std::vector<Column> metrics;
    metrics.push_back(
        dbtouch::storage::GenGaussianDouble("load", 500'000, 60.0, 15.0, 7));
    if (!server.RegisterTable(*Table::FromColumns("metrics",
                                                  std::move(metrics)))
             .ok()) {
      std::fprintf(stderr, "failed to register metrics\n");
      return 1;
    }
    std::vector<Column> events;
    events.push_back(
        dbtouch::storage::GenSequenceInt64("severity", 500'000, 0, 1));
    if (!server.RegisterTable(*Table::FromColumns("events",
                                                  std::move(events)))
             .ok()) {
      std::fprintf(stderr, "failed to register events\n");
      return 1;
    }
  }
  if (!server.Start().ok()) {
    return 1;
  }
  std::printf("touch server up: %d workers, %zu tables\n",
              server.num_workers(), server.shared().catalog().size());

  Kernel reference;  // Device geometry for trace building.
  TraceBuilder builder(reference.device());
  const auto events = api::ToWire(
      builder.Slide("explore", PointCm{3.0, 1.0}, PointCm{3.0, 11.0},
                    MotionProfile::Constant(2.0)));

  constexpr int kUsers = 8;
  std::vector<SessionId> sessions;
  for (int i = 0; i < kUsers; ++i) {
    const auto session = server.Call(api::OpenSessionReq{});
    if (!session.ok()) {
      return 1;
    }
    sessions.push_back(session->session);
    const bool summary_user = i % 2 == 0;
    const auto object = server.Call(
        api::CreateObjectReq{.session = session->session,
                             .kind = 0,
                             .table = summary_user ? "metrics" : "events",
                             .column = summary_user ? "load" : "severity",
                             .frame = {2.0, 1.0, 2.0, 10.0}});
    if (!object.ok()) {
      return 1;
    }
    const ActionConfig action =
        summary_user
            ? ActionConfig::Summary(10)
            : ActionConfig::Filter(dbtouch::exec::Predicate(
                  dbtouch::exec::CompareOp::kGt, 450'000.0));
    if (!server
             .Call(api::SetActionReq{.session = session->session,
                                     .object = object->object,
                                     .action = api::ToWire(action)})
             .ok()) {
      return 1;
    }
  }
  std::printf("%d sessions exploring concurrently (paced 2 s slides)...\n",
              kUsers);
  for (const SessionId id : sessions) {
    if (!server
             .Call(api::SubmitBatchReq{
                 .session = id, .paced = true, .events = events})
             .ok()) {
      return 1;
    }
  }
  if (!server.Drain().ok()) {
    return 1;
  }

  const ServerStatsSnapshot stats = server.stats();
  std::printf("\nper-session results:\n");
  for (const SessionId id : sessions) {
    const auto& per = stats.per_session.at(id);
    const auto snapshot = server.Call(api::SessionSnapshotReq{.session = id});
    const std::int64_t results = snapshot.ok() ? snapshot->result_count : 0;
    std::printf(
        "  session %lld: %lld touches executed, %lld results, "
        "%lld misses, %lld shed\n",
        static_cast<long long>(id), static_cast<long long>(per.executed),
        static_cast<long long>(results),
        static_cast<long long>(per.deadline_misses),
        static_cast<long long>(per.dropped_quanta));
  }
  std::printf(
      "\nserver: %lld touches served, p50 %.2f ms, p99 %.2f ms, "
      "miss rate %.1f%%, fairness %.3f\n",
      static_cast<long long>(stats.executed),
      static_cast<double>(stats.p50_latency_us) / 1e3,
      static_cast<double>(stats.p99_latency_us) / 1e3,
      stats.miss_rate() * 100.0, stats.fairness);
  std::printf("shared sample memory: %.1f MB for %zu hierarchies\n",
              static_cast<double>(server.shared().sample_bytes()) / 1e6,
              server.shared().hierarchy_count());
  (void)server.Stop();
  return 0;
}
