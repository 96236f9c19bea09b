// Many-sessions stress over the disk spill tier: concurrent workers,
// fetchers, ranged coalesced reads, steady transient fault injection and
// mid-flight session closes (cancellation), all against one spilled table
// 4x the buffer budget. The TSan CI job runs this binary to shake out
// races; the assertions are parity (sequence data: value == row) and the
// bounded-residency contract.
//
// Labeled `slow` in CMake: CI runs it in the dedicated stress/fault step.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/file_block_provider.h"
#include "core/kernel.h"
#include "server/api.h"
#include "server/touch_server.h"
#include "server_harness.h"
#include "sim/motion_profile.h"
#include "sim/trace_builder.h"
#include "storage/datagen.h"
#include "storage/spill.h"
#include "storage/table.h"

namespace dbtouch {
namespace {

using cache::FileFaultInjector;
using core::Kernel;
using server::ColumnObject;
using server::OpenWithObject;
using server::ServerStatsSnapshot;
using server::SessionId;
using server::TouchServer;
using server::TouchServerConfig;
using sim::MotionProfile;
using sim::PointCm;
using sim::TraceBuilder;
using storage::Column;
using storage::SpillOptions;
using storage::Table;
using storage::TableSpiller;
namespace api = server::api;

TEST(SpillStressTest, ManySessionsOverFlakySpilledTableStayConsistent) {
  std::string tmpl = (std::filesystem::temp_directory_path() /
                      "dbtouch_spill_stress_XXXXXX")
                         .string();
  const std::string dir = ::mkdtemp(tmpl.data());

  constexpr int kSessions = 6;
  constexpr std::int64_t kRows = 1 << 15;
  TouchServerConfig config;
  config.num_workers = 3;
  config.base_frame_budget_us = 1'000'000;  // Relaxed: stress, not pacing.
  config.drop_slack_us = 10'000'000;
  config.session_defaults.buffer.rows_per_block = 1'024;
  config.session_defaults.buffer.budget_bytes = kRows * 8 / 4;
  config.session_defaults.buffer.fetch.num_fetchers = 2;
  config.session_defaults.buffer.fetch.retry_backoff_us = 100;
  // Summaries read base bands (multi-block stalls -> coalesced ranged
  // reads) instead of sample levels.
  config.session_defaults.use_sampling = false;
  TouchServer server(config);
  std::vector<Column> cols;
  cols.push_back(storage::GenSequenceInt64("v", kRows, 0, 1));
  auto table = *Table::FromColumns("t", std::move(cols));
  ASSERT_TRUE(server.RegisterTable(table).ok());

  TableSpiller spiller(dir, SpillOptions{.rows_per_block = 1'024});
  const auto provider = spiller.SpillColumn(table, 0);
  ASSERT_TRUE(provider.ok()) << provider.status();
  FileFaultInjector injector;
  injector.set_fail_every(7, FileFaultInjector::Fault::kShortRead);
  (*provider)->set_fault_injector(&injector);
  ASSERT_TRUE(server.shared().SetColumnProvider("t", 0, *provider).ok());
  ASSERT_TRUE(server.Start().ok());

  Kernel reference;
  TraceBuilder builder(reference.device());
  const sim::GestureTrace trace =
      builder.Slide("s", PointCm{3.0, 1.0}, PointCm{3.0, 11.0},
                    MotionProfile::Constant(0.5));

  std::vector<SessionId> ids;
  for (int i = 0; i < kSessions; ++i) {
    // Half the fleet slides summaries: multi-block band stalls that the
    // fetch queue serves as coalesced ranged reads. The rest run the
    // default point-read scan.
    const auto session = OpenWithObject(
        server, ColumnObject("t", "v"),
        i % 2 == 0 ? core::ActionConfig::Summary(24)
                   : core::ActionConfig::Scan());
    ASSERT_TRUE(session.ok());
    ids.push_back(*session);
  }
  // One extra session submits and closes immediately: its queued demand
  // fetches must be retracted (or settle as no-ops), never wedge the
  // server or deliver into a dead session.
  const auto doomed = OpenWithObject(server, ColumnObject("t", "v"));
  ASSERT_TRUE(doomed.ok());

  std::vector<std::thread> submitters;
  submitters.reserve(kSessions + 1);
  for (const SessionId id : ids) {
    submitters.emplace_back([&server, &trace, id] {
      EXPECT_TRUE(server
                      .Call(api::SubmitBatchReq{.session = id,
                                                .paced = false,
                                                .events = api::ToWire(trace)})
                      .ok());
    });
  }
  submitters.emplace_back([&server, &trace, doomed = *doomed] {
    EXPECT_TRUE(server
                    .Call(api::SubmitBatchReq{.session = doomed,
                                              .paced = false,
                                              .events = api::ToWire(trace)})
                    .ok());
    EXPECT_TRUE(server.Call(api::CloseSessionReq{.session = doomed}).ok());
  });
  for (std::thread& t : submitters) {
    t.join();
  }
  ASSERT_TRUE(server.Drain().ok());

  const ServerStatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.executed + stats.dropped_quanta, stats.submitted);
  EXPECT_GT(stats.buffer.faulted_blocks, 0);
  EXPECT_LE(stats.buffer.peak_resident_bytes, stats.buffer.budget_bytes);
  // Sequence data parity, whichever worker/fetcher/fault interleaving
  // produced the answer: point reads equal their row id, summary bands
  // average to their band midpoint.
  for (const SessionId id : ids) {
    ASSERT_TRUE(
        server
            .WithSession(id,
                         [](Kernel& kernel) {
                           for (const auto& item :
                                kernel.results().items()) {
                             if (item.kind ==
                                 core::ResultKind::kSummary) {
                               const double mid =
                                   static_cast<double>(item.band_first +
                                                       item.band_last) /
                                   2.0;
                               EXPECT_DOUBLE_EQ(item.value.ToDouble(),
                                                mid);
                             } else {
                               EXPECT_EQ(item.value.AsInt(), item.row);
                             }
                           }
                           EXPECT_FALSE(kernel.has_pending_gestures());
                         })
            .ok());
  }
  // The spill tier actually served coalesced ranged reads under stress.
  EXPECT_GT(stats.fetch.ranged_reads, 0);
  ASSERT_TRUE(server.Stop().ok());

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace dbtouch
