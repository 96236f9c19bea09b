// Cross-module integration tests: full exploration sessions through the
// kernel, trace persistence round trips, rotation under live gestures,
// and join resumption through the hash-table cache.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <set>

#include "cache/buffer_manager.h"
#include "cache/hash_table_cache.h"
#include "common/macros.h"
#include "core/ascii_screen.h"
#include "core/kernel.h"
#include "exec/aggregate.h"
#include "exec/predicate.h"
#include "sim/motion_profile.h"
#include "sim/trace_builder.h"
#include "sim/trace_io.h"
#include "storage/csv_loader.h"
#include "storage/datagen.h"

namespace dbtouch {
namespace {

using core::ActionConfig;
using core::Kernel;
using core::KernelConfig;
using core::ResultKind;
using sim::MotionProfile;
using sim::PointCm;
using sim::TraceBuilder;
using storage::Column;
using storage::RowId;
using storage::Table;
using touch::RectCm;

sim::GestureTrace MakeSession(const Kernel& kernel) {
  TraceBuilder builder(kernel.device());
  sim::GestureTrace session =
      builder.Slide("pass1", PointCm{3.0, 1.0}, PointCm{3.0, 11.0},
                    MotionProfile::Constant(2.0));
  session.Append(builder.Pinch("zoom", PointCm{3.0, 6.0}, M_PI / 2.0, 2.0,
                               4.0, 0.5),
                 300'000);
  MotionProfile back_and_forth;
  back_and_forth.ThenMoveTo(0.7, 1.0).ThenPause(0.5).ThenMoveTo(0.3, 1.0);
  session.Append(builder.Slide("pass2", PointCm{3.0, 1.0},
                               PointCm{3.0, 13.0}, back_and_forth),
                 300'000);
  return session;
}

std::unique_ptr<Kernel> MakeSeqKernel(std::int64_t rows) {
  auto kernel = std::make_unique<Kernel>();
  std::vector<Column> cols;
  cols.push_back(storage::GenSequenceInt64("v", rows, 0, 1));
  DBTOUCH_CHECK_OK(
      kernel->RegisterTable(*Table::FromColumns("seq", std::move(cols))));
  auto obj = kernel->CreateColumnObject("seq", "v",
                                        RectCm{2.0, 1.0, 2.0, 10.0});
  DBTOUCH_CHECK_OK(obj.status());
  DBTOUCH_CHECK_OK(kernel->SetAction(*obj, ActionConfig::Summary(10)));
  return kernel;
}

TEST(IntegrationTest, TraceFileRoundTripReplaysIdentically) {
  auto kernel_a = MakeSeqKernel(500'000);
  const auto session = MakeSession(*kernel_a);

  // Persist, reload, replay on a fresh kernel.
  const std::string path =
      testing::TempDir() + "/dbtouch_session.trace";
  ASSERT_TRUE(sim::SaveTrace(session, path).ok());
  const auto loaded = sim::LoadTrace(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  kernel_a->Replay(session);
  auto kernel_b = MakeSeqKernel(500'000);
  kernel_b->Replay(*loaded);

  const auto& items_a = kernel_a->results().items();
  const auto& items_b = kernel_b->results().items();
  ASSERT_EQ(items_a.size(), items_b.size());
  for (std::size_t i = 0; i < items_a.size(); ++i) {
    EXPECT_EQ(items_a[i].row, items_b[i].row);
    EXPECT_EQ(items_a[i].kind, items_b[i].kind);
    EXPECT_EQ(items_a[i].timestamp_us, items_b[i].timestamp_us);
    EXPECT_EQ(items_a[i].value, items_b[i].value);
  }
  std::remove(path.c_str());
}

TEST(IntegrationTest, MonitoringRegimesSurfaceThroughSummaries) {
  // The monitoring generator plants latency regimes with means
  // {12,14,11,55,13,12.5,90,12}: the 4th and 7th segments are slow. A
  // single max-summary slide must surface both.
  std::vector<RowId> spikes;
  const auto table = storage::MakeMonitoringTable(500'000, 3, &spikes);
  Kernel kernel;
  ASSERT_TRUE(kernel.RegisterTable(table).ok());
  const auto latency_col = table->schema().FieldIndex("latency_ms");
  ASSERT_TRUE(latency_col.ok());
  const auto obj = kernel.CreateColumnObject("monitoring", "latency_ms",
                                             RectCm{2.0, 1.0, 2.0, 10.0});
  ASSERT_TRUE(obj.ok());
  ASSERT_TRUE(kernel
                  .SetAction(*obj, ActionConfig::Summary(
                                       10, exec::AggKind::kMax))
                  .ok());
  TraceBuilder builder(kernel.device());
  kernel.Replay(builder.Slide("scan", PointCm{3.0, 1.0}, PointCm{3.0, 11.0},
                              MotionProfile::Constant(4.0)));

  const std::int64_t n = table->row_count();
  bool regime4 = false;
  bool regime7 = false;
  for (const auto& item : kernel.results().items()) {
    if (item.value.AsDouble() < 40.0) {
      continue;
    }
    const RowId mid = (item.band_first + item.band_last) / 2;
    const std::int64_t segment = mid * 8 / n;
    regime4 |= segment == 3;
    regime7 |= segment == 6;
  }
  EXPECT_TRUE(regime4);
  EXPECT_TRUE(regime7);
}

TEST(IntegrationTest, SlidesKeepWorkingWhileRotationConverts) {
  KernelConfig config;
  // Small per-touch conversion budget so the rotation genuinely spans
  // many touches (200k rows / 2048 per step ~ 98 steps).
  config.rotation_rows_per_step = 2048;
  Kernel kernel(config);
  std::vector<Column> cols;
  cols.push_back(storage::GenSequenceInt64("id", 200'000, 0, 1));
  cols.push_back(storage::GenUniformInt32("x", 200'000, 0, 99, 1));
  ASSERT_TRUE(
      kernel.RegisterTable(*Table::FromColumns("t", std::move(cols))).ok());
  const auto obj = kernel.CreateTableObject("t", RectCm{6.0, 1.0, 6.0, 10.0});
  ASSERT_TRUE(obj.ok());
  TraceBuilder builder(kernel.device());

  // Trigger the layout rotation...
  kernel.Replay(builder.TwoFingerRotate("rot", PointCm{9.0, 6.0}, 2.0, 0.0,
                                        M_PI / 2.0, 1.0));
  ASSERT_TRUE(*kernel.rotation_in_progress(*obj));

  // ...and keep exploring while it converts in per-touch steps. The
  // rotated (horizontal) object now maps x to tuples.
  kernel.Replay(builder.Slide("during", PointCm{6.5, 3.0},
                              PointCm{15.5, 3.0},
                              MotionProfile::Constant(3.0),
                              kernel.clock().now() + 200'000));
  EXPECT_GT(kernel.results().CountKind(ResultKind::kValue), 10);

  // The slide's touches drove conversion steps.
  while (*kernel.rotation_in_progress(*obj)) {
    kernel.PumpMaintenance();
  }
  const auto table = kernel.catalog().Get("t");
  EXPECT_EQ((*table)->layout(), storage::MajorOrder::kRowMajor);
  EXPECT_EQ((*table)->GetValue(123'456, 0)->AsInt(), 123'456);
  // Results produced during conversion read consistent (old-layout) data.
  for (const auto& item : kernel.results().items()) {
    if (item.kind == ResultKind::kValue && item.attribute == 0) {
      EXPECT_EQ(item.value.AsInt(), item.row);
    }
  }
}

TEST(IntegrationTest, AggregateSlideSurvivesRotationFinishingMidSlide) {
  KernelConfig config;
  // 200k rows / 6000 per step = 34 steps: the rotate gesture starts the
  // conversion, and the aggregate slide's own touches finish it.
  config.rotation_rows_per_step = 6'000;
  Kernel kernel(config);
  std::vector<Column> cols;
  cols.push_back(storage::GenSequenceInt64("id", 200'000, 0, 1));
  cols.push_back(storage::GenUniformInt32("x", 200'000, 0, 99, 1));
  ASSERT_TRUE(kernel
                  .RegisterTable(*Table::FromColumns(
                      "t", std::move(cols), storage::MajorOrder::kRowMajor))
                  .ok());
  const auto obj = kernel.CreateTableObject("t", RectCm{6.0, 1.0, 6.0, 10.0});
  ASSERT_TRUE(obj.ok());
  ASSERT_TRUE(
      kernel.SetAction(*obj, ActionConfig::Aggregate(exec::AggKind::kSum))
          .ok());
  TraceBuilder builder(kernel.device());
  kernel.Replay(builder.TwoFingerRotate("rot", PointCm{9.0, 6.0}, 2.0, 0.0,
                                        M_PI / 2.0, 1.0));
  ASSERT_TRUE(*kernel.rotation_in_progress(*obj));

  // The rotated (horizontal) object maps x to tuples; y = 3 cm lies in
  // the id attribute's band. The rotation's swap frees the row-major
  // matrix mid-slide, under the aggregate's working pin.
  kernel.Replay(builder.Slide("during", PointCm{6.5, 3.0},
                              PointCm{15.5, 3.0},
                              MotionProfile::Constant(3.0),
                              kernel.clock().now() + 200'000));
  EXPECT_FALSE(*kernel.rotation_in_progress(*obj));
  EXPECT_EQ(kernel.stats().layout_rotations, 1);
  const auto table = kernel.catalog().Get("t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->layout(), storage::MajorOrder::kColumnMajor);

  // Every aggregate is the sum of the distinct ids touched so far.
  std::set<RowId> touched;
  double sum = 0.0;
  for (const auto& item : kernel.results().items()) {
    ASSERT_EQ(item.kind, ResultKind::kAggregate);
    EXPECT_EQ(item.attribute, 0u);
    if (touched.insert(item.row).second) {
      sum += static_cast<double>(item.row);
    }
    EXPECT_EQ(item.value.AsDouble(), sum) << "row " << item.row;
    EXPECT_EQ(item.rows_aggregated,
              static_cast<std::int64_t>(touched.size()));
  }
  EXPECT_GT(touched.size(), 10u);
}

TEST(IntegrationTest, ZoneMapSlideReadsTheTableARotationRewrote) {
  // A column object's sample hierarchy views its table's matrix at level
  // 0. A table object over the same table rotates it, and the swap frees
  // that matrix; the level-0 zone map, built on the first zone-map touch
  // after the swap, must read the table as it is now, not the freed
  // matrix (ASan reports a heap-use-after-free if it does). Both places a
  // rotation finishes: inside the rotate gesture (one step converts the
  // whole table) and in PumpMaintenance.
  constexpr std::int64_t kTableRows = 100'000;
  const Column raw = storage::GenSequenceInt64("id", kTableRows, 0, 1);
  const exec::Predicate predicate(exec::CompareOp::kGe, 60'000.0);
  for (const bool finish_in_gesture : {true, false}) {
    SCOPED_TRACE(finish_in_gesture ? "finished by the rotate gesture"
                                   : "finished by PumpMaintenance");
    const auto make_table = [&] {
      std::vector<Column> cols;
      cols.push_back(storage::GenSequenceInt64("id", kTableRows, 0, 1));
      cols.push_back(storage::GenUniformInt32("x", kTableRows, 0, 99, 1));
      return *Table::FromColumns("t", std::move(cols),
                                 storage::MajorOrder::kRowMajor);
    };
    KernelConfig config;
    config.rotation_rows_per_step = finish_in_gesture ? kTableRows : 6'000;
    Kernel kernel(config);
    Kernel reference;  // The same slide over a table that never rotates.
    ASSERT_TRUE(kernel.RegisterTable(make_table()).ok());
    ASSERT_TRUE(reference.RegisterTable(make_table()).ok());
    const RectCm column_frame{2.0, 1.0, 2.0, 10.0};
    const auto column = kernel.CreateColumnObject("t", "id", column_frame);
    const auto ref_column =
        reference.CreateColumnObject("t", "id", column_frame);
    ASSERT_TRUE(column.ok());
    ASSERT_TRUE(ref_column.ok());
    const auto table =
        kernel.CreateTableObject("t", RectCm{6.0, 1.0, 6.0, 10.0});
    ASSERT_TRUE(table.ok());

    TraceBuilder builder(kernel.device());
    kernel.Replay(builder.TwoFingerRotate("rot", PointCm{9.0, 6.0}, 2.0, 0.0,
                                          M_PI / 2.0, 1.0));
    while (*kernel.rotation_in_progress(*table)) {
      ASSERT_FALSE(finish_in_gesture);
      kernel.PumpMaintenance();
    }
    ASSERT_EQ(kernel.stats().layout_rotations, 1);
    ASSERT_EQ((*kernel.catalog().Get("t"))->layout(),
              storage::MajorOrder::kColumnMajor);

    ASSERT_TRUE(kernel
                    .SetAction(*column, ActionConfig::Filter(
                                            predicate, /*use_zone_map=*/true))
                    .ok());
    ASSERT_TRUE(reference
                    .SetAction(*ref_column,
                               ActionConfig::Filter(predicate,
                                                    /*use_zone_map=*/true))
                    .ok());
    const std::size_t before = kernel.results().items().size();
    const sim::GestureTrace slide =
        builder.Slide("scan", PointCm{3.0, 1.0}, PointCm{3.0, 11.0},
                      MotionProfile::Constant(2.0),
                      kernel.clock().now() + 200'000);
    kernel.Replay(slide);
    reference.Replay(slide);

    // Every match is the raw value at its row and passes the predicate,
    // and the slide answers exactly as over the never-rotated table.
    const auto& items = kernel.results().items();
    const auto& want = reference.results().items();
    ASSERT_EQ(items.size() - before, want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      const core::ResultItem& got = items[before + i];
      ASSERT_EQ(got.kind, ResultKind::kFilterMatch);
      const double value = raw.View().GetAsDouble(got.row);
      EXPECT_EQ(got.value.ToDouble(), value) << "row " << got.row;
      EXPECT_TRUE(predicate.Matches(value)) << "row " << got.row;
      EXPECT_EQ(got.row, want[i].row);
    }
    EXPECT_GT(want.size(), 0u);
    EXPECT_GT(kernel.stats().rows_pruned, 0);
    EXPECT_EQ(kernel.stats().rows_pruned, reference.stats().rows_pruned);
  }
}

TEST(IntegrationTest, JoinResumesThroughHashTableCache) {
  const Column left = storage::GenSequenceInt64("k", 10'000, 0, 1);
  const Column right = storage::GenSequenceInt64("k", 10'000, 0, 1);
  cache::HashTableCache table_cache(4);
  const std::string key = cache::HashTableCache::MakeKey("L.k=R.k", 0);

  // Session 1: feed some left rows, cache the join state.
  {
    auto join = std::make_shared<exec::SymmetricHashJoin>(left.View(),
                                                          right.View());
    for (RowId r = 0; r < 100; ++r) {
      join->Feed(exec::JoinSide::kLeft, r);
    }
    table_cache.Put(key, join);
  }
  // Session 2 (later, same granularity): resume and probe from the right.
  auto resumed = table_cache.Get(key);
  ASSERT_NE(resumed, nullptr);
  EXPECT_EQ(resumed->left_fed(), 100);
  std::int64_t matches = 0;
  for (RowId r = 0; r < 100; ++r) {
    matches += static_cast<std::int64_t>(
        resumed->Feed(exec::JoinSide::kRight, r).size());
  }
  EXPECT_EQ(matches, 100);  // Every probe found its cached partner.
}

TEST(IntegrationTest, AsciiScreenShowsObjectsAndResults) {
  auto kernel = MakeSeqKernel(100'000);
  TraceBuilder builder(kernel->device());
  kernel->Replay(builder.Slide("s", PointCm{3.0, 1.0}, PointCm{3.0, 11.0},
                               MotionProfile::Constant(1.0)));
  const std::string screen = core::RenderScreen(*kernel);
  // Object frame and name are drawn.
  EXPECT_NE(screen.find("seq.v"), std::string::npos);
  EXPECT_NE(screen.find('+'), std::string::npos);
  EXPECT_NE(screen.find('|'), std::string::npos);
  // At least one fresh result value is legible (digits on screen).
  EXPECT_NE(screen.find_first_of("0123456789"), std::string::npos);
}

TEST(IntegrationTest, CsvLoadsStraightIntoExploration) {
  // Raw file -> catalog -> data object -> slide: the full adoption path.
  std::string csv = "reading\n";
  for (int i = 0; i < 20'000; ++i) {
    csv += std::to_string(i % 500) + "\n";
  }
  const auto table = storage::LoadCsv(csv, "sensor");
  ASSERT_TRUE(table.ok()) << table.status();
  Kernel kernel;
  ASSERT_TRUE(kernel.RegisterTable(*table).ok());
  const auto obj = kernel.CreateColumnObject("sensor", "reading",
                                             RectCm{2.0, 1.0, 2.0, 10.0});
  ASSERT_TRUE(obj.ok());
  ASSERT_TRUE(kernel.SetAction(*obj, ActionConfig::Summary(10)).ok());
  TraceBuilder builder(kernel.device());
  kernel.Replay(builder.Slide("s", PointCm{3.0, 1.0}, PointCm{3.0, 11.0},
                              MotionProfile::Constant(2.0)));
  ASSERT_GT(kernel.results().size(), 20);
  // Sawtooth data with period 500: every band average stays within the
  // sawtooth's value range.
  for (const auto& item : kernel.results().items()) {
    EXPECT_GE(item.value.AsDouble(), 0.0);
    EXPECT_LE(item.value.AsDouble(), 500.0);
  }
}

TEST(IntegrationTest, MultiObjectSessionKeepsStatsSeparate) {
  Kernel kernel;
  for (const char* name : {"t1", "t2"}) {
    std::vector<Column> cols;
    cols.push_back(storage::GenSequenceInt64("v", 50'000, 0, 1));
    ASSERT_TRUE(
        kernel.RegisterTable(*Table::FromColumns(name, std::move(cols)))
            .ok());
  }
  const auto obj1 =
      kernel.CreateColumnObject("t1", "v", RectCm{1.0, 1.0, 2.0, 10.0});
  const auto obj2 =
      kernel.CreateColumnObject("t2", "v", RectCm{8.0, 1.0, 2.0, 10.0});
  ASSERT_TRUE(obj1.ok());
  ASSERT_TRUE(obj2.ok());
  TraceBuilder builder(kernel.device());
  auto session = builder.Slide("s1", PointCm{2.0, 1.0}, PointCm{2.0, 11.0},
                               MotionProfile::Constant(1.0));
  session.Append(builder.Slide("s2", PointCm{9.0, 1.0}, PointCm{9.0, 11.0},
                               MotionProfile::Constant(2.0)),
                 200'000);
  kernel.Replay(session);

  const auto stats1 = kernel.object_stats(*obj1);
  const auto stats2 = kernel.object_stats(*obj2);
  ASSERT_TRUE(stats1.ok());
  ASSERT_TRUE(stats2.ok());
  EXPECT_GT((*stats1)->touches, 5);
  EXPECT_GT((*stats2)->touches, (*stats1)->touches);  // Slower slide.
  EXPECT_EQ((*stats1)->entries_returned + (*stats2)->entries_returned,
            kernel.stats().entries_returned);
}

TEST(IntegrationTest, PagedSlideMatchesUnpagedBeyondBudget) {
  // A column larger than the buffer budget, explored with base-data
  // summaries (sampling off) plus a back-and-forth slide: every answer
  // must be bit-identical to an average computed straight from the raw
  // column — a reference that shares no code with the pool — while
  // resident bytes never exceed the budget.
  const std::int64_t rows = 262'144;  // 2 MiB of doubles.
  const auto make_column = [&] {
    return storage::GenSegmentedDouble("v", rows, {5.0, -3.0, 12.0, 0.5},
                                       1.0, 42);
  };
  KernelConfig config;
  config.use_sampling = false;  // Every summary reads base data.
  config.buffer.budget_bytes = 128 << 10;  // 6% of the column.
  config.buffer.rows_per_block = 4'096;
  Kernel kernel(config);
  std::vector<Column> cols;
  cols.push_back(make_column());
  ASSERT_TRUE(
      kernel.RegisterTable(*Table::FromColumns("big", std::move(cols)))
          .ok());
  const auto obj =
      kernel.CreateColumnObject("big", "v", RectCm{2.0, 1.0, 2.0, 10.0});
  ASSERT_TRUE(obj.ok());
  ASSERT_TRUE(kernel.SetAction(*obj, ActionConfig::Summary(3'000)).ok());
  TraceBuilder builder(kernel.device());
  sim::GestureTrace trace =
      builder.Slide("down", PointCm{3.0, 1.0}, PointCm{3.0, 11.0},
                    MotionProfile::Constant(4.0));
  trace.Append(builder.Slide("back", PointCm{3.0, 11.0}, PointCm{3.0, 4.0},
                             MotionProfile::Constant(2.0)),
               150'000);
  kernel.Replay(trace);

  const Column raw_column = make_column();
  const storage::ColumnView raw = raw_column.View();
  const auto& got = kernel.results().items();
  ASSERT_GT(got.size(), 20u);
  std::int64_t rows_aggregated = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].kind, ResultKind::kSummary);
    ASSERT_LE(got[i].band_first, got[i].row);
    ASSERT_GE(got[i].band_last, got[i].row);
    ASSERT_LT(got[i].band_last, rows);
    EXPECT_EQ(got[i].rows_aggregated,
              got[i].band_last - got[i].band_first + 1)
        << "result " << i;
    // Bit-identical: the reference feeds the band in ascending row order,
    // as every kernel read path does.
    exec::RunningAggregate expect(exec::AggKind::kAvg);
    for (RowId r = got[i].band_first; r <= got[i].band_last; ++r) {
      expect.Add(raw.GetDouble(r));
    }
    EXPECT_EQ(got[i].value.AsDouble(), expect.value()) << "result " << i;
    rows_aggregated += got[i].rows_aggregated;
  }
  EXPECT_EQ(kernel.stats().rows_scanned, rows_aggregated);

  const cache::BufferManager& pool = kernel.shared_state()->buffer_manager();
  const cache::BlockCacheStats stats = pool.stats();
  EXPECT_GT(stats.faults, 0);
  EXPECT_GT(rows * 8, pool.config().budget_bytes);  // Data exceeds budget.
  EXPECT_LE(stats.resident_bytes, pool.config().budget_bytes);
  EXPECT_LE(stats.peak_resident_bytes, pool.config().budget_bytes);
  // Gesture ended: the session's working pins were released, so nothing
  // idles pinned in the shared pool.
  EXPECT_EQ(stats.pinned_blocks, 0);
}

TEST(IntegrationTest, KernelJoinResumesThroughHashTableCache) {
  // Slide over the left column object, destroy both objects, recreate
  // them, re-enable the join: the session's hash-table cache must resume
  // the old join state, so right-side touches match immediately.
  Kernel kernel;
  for (const char* name : {"L", "R"}) {
    std::vector<Column> cols;
    cols.push_back(storage::GenSequenceInt64("k", 20'000, 0, 1));
    ASSERT_TRUE(
        kernel.RegisterTable(*Table::FromColumns(name, std::move(cols)))
            .ok());
  }
  const RectCm left_frame{1.0, 1.0, 2.0, 10.0};
  const RectCm right_frame{8.0, 1.0, 2.0, 10.0};
  auto left = kernel.CreateColumnObject("L", "k", left_frame);
  auto right = kernel.CreateColumnObject("R", "k", right_frame);
  ASSERT_TRUE(left.ok() && right.ok());
  ASSERT_TRUE(kernel.EnableJoin(*left, *right).ok());
  EXPECT_EQ(kernel.stats().join_cache_hits, 0);

  TraceBuilder builder(kernel.device());
  kernel.Replay(builder.Slide("feed-left", PointCm{2.0, 1.0},
                              PointCm{2.0, 11.0},
                              MotionProfile::Constant(2.0)));
  ASSERT_GT(kernel.stats().slide_steps, 10);
  EXPECT_EQ(kernel.results().CountKind(ResultKind::kJoinMatch), 0);

  ASSERT_TRUE(kernel.DestroyObject(*left).ok());
  ASSERT_TRUE(kernel.DestroyObject(*right).ok());
  left = kernel.CreateColumnObject("L", "k", left_frame);
  right = kernel.CreateColumnObject("R", "k", right_frame);
  ASSERT_TRUE(left.ok() && right.ok());
  ASSERT_TRUE(kernel.EnableJoin(*left, *right).ok());
  EXPECT_EQ(kernel.stats().join_cache_hits, 1);

  // Same rows from the right: every touch finds its cached left partner.
  kernel.Replay(builder.Slide("probe-right", PointCm{9.0, 1.0},
                              PointCm{9.0, 11.0},
                              MotionProfile::Constant(2.0),
                              kernel.clock().now() + 500'000));
  EXPECT_GT(kernel.results().CountKind(ResultKind::kJoinMatch), 10);
}

}  // namespace
}  // namespace dbtouch
