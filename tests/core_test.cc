// Integration tests for the dbTouch kernel: the full per-touch pipeline
// (touch -> gesture -> map -> execute -> result) driven by synthetic
// gesture traces, exactly as the benchmarks and examples drive it.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "core/kernel.h"
#include "sim/motion_profile.h"
#include "sim/trace_builder.h"
#include "storage/datagen.h"

namespace dbtouch::core {
namespace {

using sim::MotionProfile;
using sim::PointCm;
using sim::TraceBuilder;
using storage::Column;
using storage::Table;
using touch::RectCm;

constexpr std::int64_t kRows = 100'000;

/// A kernel with one registered column of sequential values 0..n-1 and a
/// 10cm-tall column object at x=2..4, y=1..11.
class KernelFixture : public testing::Test {
 protected:
  void SetUp() override { Rebuild(KernelConfig{}); }

  void Rebuild(KernelConfig config) {
    kernel_ = std::make_unique<Kernel>(config);
    std::vector<Column> cols;
    cols.push_back(storage::GenSequenceInt64("v", kRows, 0, 1));
    ASSERT_TRUE(kernel_
                    ->RegisterTable(
                        *Table::FromColumns("seq", std::move(cols)))
                    .ok());
    auto id = kernel_->CreateColumnObject("seq", "v",
                                          RectCm{2.0, 1.0, 2.0, 10.0});
    ASSERT_TRUE(id.ok()) << id.status();
    object_ = *id;
  }

  TraceBuilder builder() const { return TraceBuilder(kernel_->device()); }

  /// Slide top-to-bottom over the object, `duration_s` long.
  sim::GestureTrace Slide(double duration_s) const {
    return builder().Slide("slide", PointCm{3.0, 1.0}, PointCm{3.0, 11.0},
                           MotionProfile::Constant(duration_s));
  }

  std::unique_ptr<Kernel> kernel_;
  ObjectId object_ = 0;
};

TEST_F(KernelFixture, TapRevealsSingleValue) {
  // Tap the middle of the object: row ~ n/2 (paper: "a single tap
  // anywhere on a column data object reveals a single column value").
  kernel_->Replay(builder().Tap("tap", PointCm{3.0, 6.0}));
  ASSERT_EQ(kernel_->results().size(), 1);
  const ResultItem& item = kernel_->results().back();
  EXPECT_EQ(item.kind, ResultKind::kValue);
  EXPECT_NEAR(static_cast<double>(item.row), kRows / 2.0, kRows * 0.01);
  EXPECT_EQ(item.value.AsInt(), item.row);  // Sequential data.
  EXPECT_EQ(kernel_->stats().taps, 1);
}

TEST_F(KernelFixture, TapLeavesNoPoolBlockPinned) {
  // A tap is a whole gesture: once its value is read, an idle session
  // must not hold the block under the finger pinned in the shared pool.
  kernel_->Replay(builder().Tap("tap", PointCm{3.0, 6.0}));
  ASSERT_EQ(kernel_->results().size(), 1);
  EXPECT_EQ(kernel_->shared_state()->buffer_manager().stats().pinned_blocks,
            0);
}

TEST_F(KernelFixture, TapOutsideObjectsDoesNothing) {
  kernel_->Replay(builder().Tap("tap", PointCm{15.0, 13.0}));
  EXPECT_EQ(kernel_->results().size(), 0);
}

TEST_F(KernelFixture, SlideScanSurfacesEntriesAsGestureProgresses) {
  kernel_->Replay(Slide(2.0));
  const auto& results = kernel_->results().items();
  ASSERT_GT(results.size(), 20u);
  // Rows grow monotonically with the downward slide.
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i].row, results[i - 1].row);
    EXPECT_GE(results[i].timestamp_us, results[i - 1].timestamp_us);
  }
  // First touches map near the top, last near the bottom.
  EXPECT_LT(results.front().row, kRows / 10);
  EXPECT_GT(results.back().row, kRows * 9 / 10);
}

TEST_F(KernelFixture, SlowerSlideReturnsMoreEntries) {
  kernel_->Replay(Slide(0.5));
  const auto fast = kernel_->stats().entries_returned;
  Rebuild(KernelConfig{});
  kernel_->Replay(Slide(4.0));
  const auto slow = kernel_->stats().entries_returned;
  EXPECT_GT(slow, fast * 5);  // Paper Figure 4(a): ~8 vs ~60.
}

TEST_F(KernelFixture, AggregateActionMaintainsRunningAverage) {
  ASSERT_TRUE(kernel_
                  ->SetAction(object_, ActionConfig::Aggregate(
                                           exec::AggKind::kAvg))
                  .ok());
  kernel_->Replay(Slide(1.0));
  const auto& results = kernel_->results().items();
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results.back().kind, ResultKind::kAggregate);
  // Sliding uniformly over 0..n-1 top to bottom: the running average of
  // touched entries approaches n/2.
  EXPECT_NEAR(results.back().value.AsDouble(), kRows / 2.0, kRows * 0.06);
  // rows_aggregated grows monotonically.
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i].rows_aggregated, results[i - 1].rows_aggregated);
  }
}

TEST_F(KernelFixture, SummaryActionAggregatesBands) {
  ASSERT_TRUE(
      kernel_->SetAction(object_, ActionConfig::Summary(10)).ok());
  kernel_->Replay(Slide(1.0));
  const auto& results = kernel_->results().items();
  ASSERT_FALSE(results.empty());
  for (const ResultItem& item : results) {
    EXPECT_EQ(item.kind, ResultKind::kSummary);
    EXPECT_LE(item.band_first, item.row);
    EXPECT_GE(item.band_last, item.row);
    // Sequential data: the band average approximates the band midpoint.
    // Sample entries sit at stride starts, so the approximation is offset
    // by up to half the sample stride.
    ASSERT_GT(item.rows_aggregated, 0);
    const double stride =
        static_cast<double>(item.band_last - item.band_first + 1) /
        static_cast<double>(item.rows_aggregated);
    const double mid =
        static_cast<double>(item.band_first + item.band_last) / 2.0;
    EXPECT_NEAR(item.value.AsDouble(), mid, stride);
  }
}

TEST_F(KernelFixture, SummaryUsesSampleLevelsWhenEnabled) {
  ASSERT_TRUE(
      kernel_->SetAction(object_, ActionConfig::Summary(10)).ok());
  kernel_->Replay(Slide(1.0));
  const auto stats = kernel_->object_stats(object_);
  ASSERT_TRUE(stats.ok());
  // 100k rows over a 10cm object (~521 positions): the level policy picks
  // a coarse level, so summaries are approximate and cheap.
  EXPECT_GT((*stats)->last_level_used, 0);
  EXPECT_TRUE(kernel_->results().back().approximate);
}

TEST_F(KernelFixture, SamplingOffReadsBaseBands) {
  KernelConfig config;
  config.use_sampling = false;
  Rebuild(config);
  ASSERT_TRUE(
      kernel_->SetAction(object_, ActionConfig::Summary(10)).ok());
  kernel_->Replay(Slide(1.0));
  ASSERT_GT(kernel_->results().size(), 0);
  EXPECT_FALSE(kernel_->results().back().approximate);
  // Base bands read stride*k entries per touch: far more rows scanned.
  const auto base_rows = kernel_->stats().rows_scanned;
  Rebuild(KernelConfig{});
  ASSERT_TRUE(
      kernel_->SetAction(object_, ActionConfig::Summary(10)).ok());
  kernel_->Replay(Slide(1.0));
  EXPECT_LT(kernel_->stats().rows_scanned, base_rows / 4);
}

TEST_F(KernelFixture, FilteredScanOnlySurfacesMatches) {
  // Values are 0..n-1; keep only > 90% of n.
  ASSERT_TRUE(kernel_
                  ->SetAction(object_,
                              ActionConfig::Filter(exec::Predicate(
                                  exec::CompareOp::kGt, kRows * 0.9)))
                  .ok());
  kernel_->Replay(Slide(2.0));
  const auto& results = kernel_->results().items();
  ASSERT_FALSE(results.empty());
  for (const ResultItem& item : results) {
    EXPECT_EQ(item.kind, ResultKind::kFilterMatch);
    EXPECT_GT(item.value.AsInt(), static_cast<std::int64_t>(kRows * 0.9));
  }
  // Roughly 10% of touches pass.
  EXPECT_LT(results.size(), 10u);
}

TEST_F(KernelFixture, ZoneMapPrunesNonMatchingTouches) {
  // Sequential values 0..n-1 with a predicate matching only the last 2%:
  // zone maps answer "cannot match" for ~98% of touches without a read.
  const exec::Predicate top_slice(exec::CompareOp::kGt, kRows * 0.98);
  ASSERT_TRUE(kernel_
                  ->SetAction(object_, ActionConfig::Filter(
                                           top_slice, /*use_zone_map=*/true))
                  .ok());
  kernel_->Replay(Slide(2.0));
  const auto& stats = kernel_->stats();
  EXPECT_GT(stats.rows_pruned, stats.rows_scanned * 10);
  // Pruning never changes the answer: rerun without the zone map.
  const auto matches_with = kernel_->results().size();
  Rebuild(KernelConfig{});
  ASSERT_TRUE(kernel_
                  ->SetAction(object_, ActionConfig::Filter(
                                           top_slice, /*use_zone_map=*/false))
                  .ok());
  kernel_->Replay(Slide(2.0));
  EXPECT_EQ(kernel_->results().size(), matches_with);
  EXPECT_EQ(kernel_->stats().rows_pruned, 0);
}

TEST_F(KernelFixture, PinchZoomInGrowsObjectAndGranularity) {
  const auto view = kernel_->object_view(object_);
  ASSERT_TRUE(view.ok());
  const double before = (*view)->tuple_axis_extent();
  kernel_->Replay(builder().Pinch("zoom", PointCm{3.0, 6.0}, M_PI / 2.0,
                                  2.0, 6.0, 1.0));
  const double after = (*view)->tuple_axis_extent();
  EXPECT_GT(after, before * 2.0);  // ~3x pinch.
  EXPECT_GT(kernel_->stats().pinch_steps, 0);
}

TEST_F(KernelFixture, ZoomOutShrinksWithinClamp) {
  KernelConfig config;
  config.zoom_min_extent_cm = 2.0;
  Rebuild(config);
  const auto view = kernel_->object_view(object_);
  kernel_->Replay(builder().Pinch("shrink", PointCm{3.0, 6.0}, M_PI / 2.0,
                                  8.0, 1.0, 1.0));
  EXPECT_GE((*view)->tuple_axis_extent(), 2.0);
}

TEST_F(KernelFixture, SessionTracksGesturesAndEntries) {
  kernel_->Replay(Slide(1.0));
  kernel_->sessions().EndSession(kernel_->clock().now());
  ASSERT_EQ(kernel_->sessions().completed().size(), 1u);
  const SessionSummary& s = kernel_->sessions().completed()[0];
  EXPECT_EQ(s.gestures, 1);
  EXPECT_GT(s.entries_returned, 5);
  EXPECT_GT(s.touches, 5);
}

TEST_F(KernelFixture, IdleGapSplitsSessions) {
  KernelConfig config;
  config.session_idle_gap_us = 1'000'000;
  Rebuild(config);
  auto trace = Slide(0.5);
  trace.Append(Slide(0.5), /*gap_us=*/5'000'000);  // 5s idle.
  kernel_->Replay(trace);
  kernel_->sessions().EndSession(kernel_->clock().now());
  EXPECT_EQ(kernel_->sessions().completed().size(), 2u);
}

TEST_F(KernelFixture, ResultsFadeAfterWindow) {
  kernel_->Replay(Slide(1.0));
  const sim::Micros end = kernel_->clock().now();
  const auto visible_now = kernel_->results().VisibleAt(end);
  EXPECT_GT(visible_now.size(), 0u);
  // Recent results are bolder than older ones.
  for (std::size_t i = 1; i < visible_now.size(); ++i) {
    EXPECT_GE(visible_now[i].opacity, visible_now[i - 1].opacity);
  }
  const auto visible_later =
      kernel_->results().VisibleAt(end + kernel_->results().fade_us() + 1);
  EXPECT_TRUE(visible_later.empty());
}

TEST_F(KernelFixture, ObjectStatsTrackTouches) {
  kernel_->Replay(Slide(1.0));
  const auto stats = kernel_->object_stats(object_);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT((*stats)->touches, 5);
  EXPECT_EQ((*stats)->entries_returned,
            kernel_->stats().entries_returned);
}

TEST_F(KernelFixture, DestroyObjectStopsRouting) {
  ASSERT_TRUE(kernel_->DestroyObject(object_).ok());
  kernel_->Replay(Slide(1.0));
  EXPECT_EQ(kernel_->results().size(), 0);
  EXPECT_TRUE(kernel_->DestroyObject(object_).IsNotFound());
}

TEST_F(KernelFixture, SetActionValidates) {
  EXPECT_TRUE(kernel_->SetAction(999, ActionConfig::Scan()).IsNotFound());
  // Group-by needs a table object.
  EXPECT_TRUE(kernel_
                  ->SetAction(object_, ActionConfig::GroupBy(
                                           0, 0, exec::AggKind::kSum))
                  .IsInvalidArgument());
}

TEST_F(KernelFixture, SetActionRefusesActionsThatCannotRun) {
  // A negative summary half-width, or a filtered scan with nothing to
  // filter by, is refused; the object keeps its scan and still answers.
  EXPECT_TRUE(kernel_->SetAction(object_, ActionConfig::Summary(-5))
                  .IsInvalidArgument());
  ActionConfig filter;
  filter.kind = core::ActionKind::kFilteredScan;
  EXPECT_TRUE(kernel_->SetAction(object_, filter).IsInvalidArgument());
  kernel_->Replay(Slide(0.5));
  ASSERT_GT(kernel_->results().size(), 0);
  EXPECT_EQ(kernel_->results().back().kind, ResultKind::kValue);
}

TEST_F(KernelFixture, SummaryKBeyondTheColumnCoversTheColumn) {
  // Any k >= 0 is valid; one past every row count clamps the band to the
  // column instead of overflowing, read from a sample level or from the
  // base data (where the per-touch budget caps it first).
  for (const bool use_sampling : {true, false}) {
    SCOPED_TRACE(use_sampling ? "sample level" : "base data");
    KernelConfig config;
    config.use_sampling = use_sampling;
    config.max_rows_per_touch = 2 * kRows;
    Rebuild(config);
    ASSERT_TRUE(kernel_
                    ->SetAction(object_,
                                ActionConfig::Summary(
                                    std::numeric_limits<std::int64_t>::max()))
                    .ok());
    kernel_->Replay(Slide(0.5));
    ASSERT_GT(kernel_->results().size(), 0);
    for (const ResultItem& item : kernel_->results().items()) {
      EXPECT_EQ(item.kind, ResultKind::kSummary);
      EXPECT_EQ(item.band_first, 0);
      EXPECT_EQ(item.band_last, kRows - 1);
    }
  }
}

// ---- ResultStream & SessionTracker units -----------------------------------

TEST(ResultStreamTest, VisibleAtHonoursFadeWindow) {
  ResultStream stream;
  const sim::Micros fade = stream.fade_us();
  ResultItem item;
  item.timestamp_us = fade / 2;
  item.value = storage::Value(std::int64_t{7});
  stream.Append(item);
  EXPECT_TRUE(stream.VisibleAt(fade / 2 - 1).empty());  // Not yet produced.
  ASSERT_EQ(stream.VisibleAt(fade / 2).size(), 1u);     // Fresh: opacity 1.
  EXPECT_DOUBLE_EQ(stream.VisibleAt(fade / 2)[0].opacity, 1.0);
  ASSERT_EQ(stream.VisibleAt(fade).size(), 1u);
  EXPECT_DOUBLE_EQ(stream.VisibleAt(fade)[0].opacity, 0.5);
  EXPECT_TRUE(stream.VisibleAt(fade / 2 + fade).empty());  // Fully faded.
}

TEST(ResultStreamTest, CountKindFilters) {
  ResultStream stream;
  ResultItem a;
  a.kind = ResultKind::kSummary;
  ResultItem b;
  b.kind = ResultKind::kValue;
  stream.Append(a);
  stream.Append(a);
  stream.Append(b);
  EXPECT_EQ(stream.CountKind(ResultKind::kSummary), 2);
  EXPECT_EQ(stream.CountKind(ResultKind::kValue), 1);
  EXPECT_EQ(stream.CountKind(ResultKind::kJoinMatch), 0);
  stream.Clear();
  EXPECT_EQ(stream.size(), 0);
}

TEST(ResultStreamTest, KindNamesAreStable) {
  EXPECT_STREQ(ResultKindName(ResultKind::kValue), "value");
  EXPECT_STREQ(ResultKindName(ResultKind::kSummary), "summary");
  EXPECT_STREQ(ResultKindName(ResultKind::kJoinMatch), "join-match");
  EXPECT_STREQ(ResultKindName(ResultKind::kGroupUpdate), "group-update");
}

TEST(SessionTrackerTest, GesturesWithinGapShareASession) {
  SessionTracker tracker(/*idle_gap_us=*/1'000'000);
  tracker.OnGestureBegin(0);
  tracker.OnTouch(100'000);
  tracker.OnGestureBegin(600'000);  // Within the gap.
  tracker.EndSession(700'000);
  ASSERT_EQ(tracker.completed().size(), 1u);
  EXPECT_EQ(tracker.completed()[0].gestures, 2);
}

TEST(SessionTrackerTest, GapOpensNewSession) {
  SessionTracker tracker(/*idle_gap_us=*/1'000'000);
  tracker.OnGestureBegin(0);
  tracker.OnTouch(100'000);
  tracker.OnGestureBegin(5'000'000);  // Past the gap.
  tracker.EndSession(5'100'000);
  ASSERT_EQ(tracker.completed().size(), 2u);
  EXPECT_EQ(tracker.completed()[0].ended_us, 100'000);
  EXPECT_EQ(tracker.completed()[1].id, 2);
}

TEST(SessionTrackerTest, AccountingOnlyWhileActive) {
  SessionTracker tracker;
  tracker.AddEntries(5);  // No session: dropped.
  tracker.OnGestureBegin(0);
  tracker.AddEntries(3);
  tracker.AddRowsScanned(21);
  tracker.EndSession(10);
  EXPECT_EQ(tracker.completed()[0].entries_returned, 3);
  EXPECT_EQ(tracker.completed()[0].rows_scanned, 21);
  EXPECT_FALSE(tracker.active());
  tracker.EndSession(20);  // Idempotent.
  EXPECT_EQ(tracker.completed().size(), 1u);
}

TEST(SessionTrackerTest, GestureExactlyAtIdleGapSharesSession) {
  // The gap check is strict: a gesture arriving exactly idle_gap_us after
  // the last activity still belongs to the same session; one microsecond
  // later opens a new one.
  SessionTracker tracker(/*idle_gap_us=*/1'000'000);
  tracker.OnGestureBegin(0);
  tracker.OnTouch(100'000);
  tracker.OnGestureBegin(1'100'000);  // Exactly at the boundary.
  tracker.EndSession(1'200'000);
  ASSERT_EQ(tracker.completed().size(), 1u);
  EXPECT_EQ(tracker.completed()[0].gestures, 2);

  SessionTracker split(/*idle_gap_us=*/1'000'000);
  split.OnGestureBegin(0);
  split.OnTouch(100'000);
  split.OnGestureBegin(1'100'001);  // One microsecond past the boundary.
  split.EndSession(1'200'000);
  EXPECT_EQ(split.completed().size(), 2u);
}

TEST(SessionTrackerTest, EndSessionWithNoActiveSessionIsANoOp) {
  SessionTracker tracker;
  tracker.EndSession(5);  // Nothing active: must not record anything.
  EXPECT_TRUE(tracker.completed().empty());
  EXPECT_FALSE(tracker.active());
  tracker.OnTouch(10);  // Touch without a session: also dropped.
  EXPECT_FALSE(tracker.active());
  EXPECT_EQ(tracker.current().touches, 0);
}

TEST(SessionTrackerTest, BackToBackSessionsAccountSeparately) {
  SessionTracker tracker(/*idle_gap_us=*/1'000'000);
  tracker.OnGestureBegin(0);
  tracker.OnTouch(10);
  tracker.AddEntries(2);
  tracker.AddRowsScanned(9);
  tracker.EndSession(20);
  tracker.OnGestureBegin(30);  // Immediately reopens.
  tracker.OnTouch(40);
  tracker.OnTouch(50);
  tracker.AddRowsScanned(7);
  tracker.EndSession(60);
  ASSERT_EQ(tracker.completed().size(), 2u);
  const SessionSummary& first = tracker.completed()[0];
  const SessionSummary& second = tracker.completed()[1];
  EXPECT_EQ(first.id, 1);
  EXPECT_EQ(second.id, 2);
  // No accounting bleeds between sessions.
  EXPECT_EQ(first.entries_returned, 2);
  EXPECT_EQ(first.rows_scanned, 9);
  EXPECT_EQ(first.touches, 1);
  EXPECT_EQ(second.entries_returned, 0);
  EXPECT_EQ(second.rows_scanned, 7);
  EXPECT_EQ(second.touches, 2);
  EXPECT_EQ(first.started_us, 0);
  EXPECT_EQ(first.ended_us, 20);
  EXPECT_EQ(second.started_us, 30);
  EXPECT_EQ(second.ended_us, 60);
}

TEST(ActionConfigTest, FactoriesSetKindAndParameters) {
  EXPECT_EQ(ActionConfig::Scan().kind, ActionKind::kScan);
  const auto agg = ActionConfig::Aggregate(exec::AggKind::kMax);
  EXPECT_EQ(agg.kind, ActionKind::kAggregate);
  EXPECT_EQ(agg.agg, exec::AggKind::kMax);
  const auto sum = ActionConfig::Summary(32, exec::AggKind::kStdDev);
  EXPECT_EQ(sum.summary_k, 32);
  const auto filt = ActionConfig::Filter(
      exec::Predicate(exec::CompareOp::kLt, 5.0), true);
  EXPECT_TRUE(filt.predicate.has_value());
  EXPECT_TRUE(filt.use_zone_map);
  const auto gb = ActionConfig::GroupBy(1, 2, exec::AggKind::kSum);
  EXPECT_EQ(gb.group_key_attribute, 1u);
  EXPECT_EQ(gb.group_value_attribute, 2u);
  EXPECT_STREQ(ActionKindName(ActionKind::kSummary), "summary");
}

// ---- Table objects -------------------------------------------------------

class TableKernelFixture : public testing::Test {
 protected:
  void SetUp() override {
    kernel_ = std::make_unique<Kernel>();
    std::vector<Column> cols;
    cols.push_back(storage::GenSequenceInt64("id", 10'000, 0, 1));
    cols.push_back(storage::GenUniformInt32("grp", 10'000, 0, 4, 5));
    cols.push_back(storage::GenGaussianDouble("val", 10'000, 10.0, 2.0, 6));
    ASSERT_TRUE(
        kernel_->RegisterTable(*Table::FromColumns("t", std::move(cols)))
            .ok());
    auto id =
        kernel_->CreateTableObject("t", RectCm{6.0, 1.0, 6.0, 10.0});
    ASSERT_TRUE(id.ok());
    object_ = *id;
  }

  TraceBuilder builder() const { return TraceBuilder(kernel_->device()); }

  std::unique_ptr<Kernel> kernel_;
  ObjectId object_ = 0;
};

TEST_F(TableKernelFixture, TapRevealsFullTuple) {
  kernel_->Replay(builder().Tap("tap", PointCm{9.0, 6.0}));
  // One ResultItem per attribute (paper: "reveals a full tuple").
  EXPECT_EQ(kernel_->results().size(), 3);
  const auto& items = kernel_->results().items();
  EXPECT_EQ(items[0].kind, ResultKind::kTuple);
  EXPECT_EQ(items[0].row, items[2].row);
  EXPECT_EQ(items[0].attribute, 0u);
  EXPECT_EQ(items[2].attribute, 2u);
}

TEST_F(TableKernelFixture, VerticalSlideScansTuplesOfTouchedAttribute) {
  kernel_->Replay(builder().Slide("slide", PointCm{7.0, 1.0},
                                  PointCm{7.0, 11.0},
                                  MotionProfile::Constant(1.0)));
  const auto& items = kernel_->results().items();
  ASSERT_FALSE(items.empty());
  // x=7cm in a 6cm-wide 3-attribute object: first attribute band.
  for (const ResultItem& item : items) {
    EXPECT_EQ(item.attribute, 0u);
  }
}

TEST_F(TableKernelFixture, HorizontalSlideWalksAttributes) {
  // Horizontal slide at fixed y: same tuple, attribute varies with x
  // (paper Section 2.4: "with a horizontal slide ... we slide through the
  // attributes values of a given tuple entry").
  kernel_->Replay(builder().Slide("hslide", PointCm{6.2, 6.0},
                                  PointCm{11.8, 6.0},
                                  MotionProfile::Constant(1.0)));
  const auto& items = kernel_->results().items();
  ASSERT_GT(items.size(), 2u);
  EXPECT_EQ(items.front().attribute, 0u);
  EXPECT_EQ(items.back().attribute, 2u);
  for (std::size_t i = 1; i < items.size(); ++i) {
    EXPECT_EQ(items[i].row, items[0].row);  // Same tuple throughout.
  }
}

TEST_F(TableKernelFixture, FilteredScanSlideReturnsMatches) {
  // x = 7 cm lies in the first attribute band (id = 0..9999).
  ASSERT_TRUE(kernel_
                  ->SetAction(object_,
                              ActionConfig::Filter(exec::Predicate(
                                  exec::CompareOp::kGt, 5'000.0)))
                  .ok());
  kernel_->Replay(builder().Slide("slide", PointCm{7.0, 1.0},
                                  PointCm{7.0, 11.0},
                                  MotionProfile::Constant(2.0)));
  const auto& items = kernel_->results().items();
  ASSERT_FALSE(items.empty());
  for (const ResultItem& item : items) {
    EXPECT_EQ(item.kind, ResultKind::kFilterMatch);
    EXPECT_EQ(item.value.AsInt(), item.row);
    EXPECT_GT(item.value.AsInt(), 5'000);
  }
}

TEST_F(TableKernelFixture, SlideActionsReadTheAttributeUnderTheFinger) {
  // x = 11 cm lies in the third attribute band (val ~ N(10, 2)): every
  // slide action reads and reports that attribute, not the first one.
  const auto slide = [&](sim::Micros start_us) {
    return builder().Slide("slide", PointCm{11.0, 1.0}, PointCm{11.0, 11.0},
                           MotionProfile::Constant(2.0), start_us);
  };
  ASSERT_TRUE(kernel_
                  ->SetAction(object_,
                              ActionConfig::Filter(exec::Predicate(
                                  exec::CompareOp::kGt, 5'000.0)))
                  .ok());
  kernel_->Replay(slide(0));
  ASSERT_GT(kernel_->stats().slide_steps, 10);
  EXPECT_EQ(kernel_->results().CountKind(ResultKind::kFilterMatch), 0);

  ASSERT_TRUE(kernel_
                  ->SetAction(object_, ActionConfig::Filter(exec::Predicate(
                                           exec::CompareOp::kGt, 9.0)))
                  .ok());
  kernel_->Replay(slide(3'000'000));
  std::int64_t matches = 0;
  for (const ResultItem& item : kernel_->results().items()) {
    ASSERT_EQ(item.kind, ResultKind::kFilterMatch);
    EXPECT_EQ(item.attribute, 2u);
    EXPECT_GT(item.value.AsDouble(), 9.0);
    EXPECT_LT(item.value.AsDouble(), 30.0);
    ++matches;
  }
  EXPECT_GT(matches, 0);

  ASSERT_TRUE(kernel_
                  ->SetAction(object_,
                              ActionConfig::Aggregate(exec::AggKind::kAvg))
                  .ok());
  kernel_->Replay(slide(6'000'000));
  const ResultItem& last = kernel_->results().back();
  EXPECT_EQ(last.kind, ResultKind::kAggregate);
  EXPECT_EQ(last.attribute, 2u);
  EXPECT_GT(last.rows_aggregated, 10);
  EXPECT_NEAR(last.value.AsDouble(), 10.0, 1.0);
}

TEST_F(TableKernelFixture, GroupByAccretesGroups) {
  ASSERT_TRUE(kernel_
                  ->SetAction(object_, ActionConfig::GroupBy(
                                           1, 2, exec::AggKind::kAvg))
                  .ok());
  kernel_->Replay(builder().Slide("slide", PointCm{7.0, 1.0},
                                  PointCm{7.0, 11.0},
                                  MotionProfile::Constant(2.0)));
  const auto& items = kernel_->results().items();
  ASSERT_FALSE(items.empty());
  for (const ResultItem& item : items) {
    EXPECT_EQ(item.kind, ResultKind::kGroupUpdate);
    // Group averages of val ~ N(10, 2) stay near 10.
    EXPECT_NEAR(item.value.AsDouble(), 10.0, 5.0);
  }
}

TEST_F(TableKernelFixture, RotateGestureFlipsLayoutIncrementally) {
  ASSERT_EQ(*kernel_->rotation_in_progress(object_), false);
  const auto table = kernel_->catalog().Get("t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->layout(), storage::MajorOrder::kColumnMajor);

  kernel_->Replay(builder().TwoFingerRotate("rot", PointCm{9.0, 6.0}, 2.0,
                                            0.0, M_PI / 2.0, 1.0));
  // Rotation begins (visual flip immediate; physical conversion stepped).
  const auto view = kernel_->object_view(object_);
  EXPECT_EQ((*view)->orientation(), touch::Orientation::kHorizontal);
  // Drive remaining conversion.
  while (*kernel_->rotation_in_progress(object_)) {
    kernel_->PumpMaintenance();
  }
  EXPECT_EQ((*table)->layout(), storage::MajorOrder::kRowMajor);
  EXPECT_EQ(kernel_->stats().layout_rotations, 1);
  // Data intact after rotation.
  EXPECT_EQ((*table)->GetValue(5000, 0)->AsInt(), 5000);
}

// ---- Joins ----------------------------------------------------------------

TEST(KernelJoinTest, SlideDrivenJoinStreamsMatches) {
  Kernel kernel;
  std::vector<Column> l;
  l.push_back(storage::GenSequenceInt64("k", 5'000, 0, 1));  // 0..4999
  ASSERT_TRUE(
      kernel.RegisterTable(*Table::FromColumns("left", std::move(l))).ok());
  std::vector<Column> r;
  r.push_back(storage::GenSequenceInt64("k", 5'000, 0, 1));  // Same keys.
  ASSERT_TRUE(
      kernel.RegisterTable(*Table::FromColumns("right", std::move(r))).ok());
  const auto left_obj = kernel.CreateColumnObject(
      "left", "k", RectCm{1.0, 1.0, 2.0, 10.0});
  const auto right_obj = kernel.CreateColumnObject(
      "right", "k", RectCm{8.0, 1.0, 2.0, 10.0});
  ASSERT_TRUE(left_obj.ok());
  ASSERT_TRUE(right_obj.ok());
  ASSERT_TRUE(kernel.EnableJoin(*left_obj, *right_obj).ok());

  TraceBuilder builder(kernel.device());
  // Slide over the left column, then the same region of the right column:
  // matches stream out during the second slide.
  auto session = builder.Slide("l", PointCm{2.0, 1.0}, PointCm{2.0, 11.0},
                               MotionProfile::Constant(1.0));
  session.Append(builder.Slide("r", PointCm{9.0, 1.0}, PointCm{9.0, 11.0},
                               MotionProfile::Constant(1.0)),
                 200'000);
  kernel.Replay(session);
  const std::int64_t matches =
      kernel.results().CountKind(ResultKind::kJoinMatch);
  // Both slides touch the same relative positions -> same keys: nearly
  // every right-side touch finds its left partner.
  EXPECT_GT(matches, 8);
}

TEST(KernelJoinTest, EnableJoinValidatesObjects) {
  Kernel kernel;
  std::vector<Column> cols;
  cols.push_back(storage::GenGaussianDouble("f", 100, 0, 1, 1));
  ASSERT_TRUE(
      kernel.RegisterTable(*Table::FromColumns("t", std::move(cols))).ok());
  const auto obj =
      kernel.CreateColumnObject("t", "f", RectCm{1, 1, 2, 10});
  ASSERT_TRUE(obj.ok());
  EXPECT_TRUE(kernel.EnableJoin(*obj, 999).IsNotFound());
  // Float keys rejected.
  EXPECT_TRUE(kernel.EnableJoin(*obj, *obj).IsInvalidArgument());
}

// ---- Interactivity bound ---------------------------------------------------

TEST(KernelBudgetTest, MaxRowsPerTouchBoundsSummaryWork) {
  KernelConfig config;
  config.use_sampling = false;          // Worst case: base-data bands.
  config.max_rows_per_touch = 10'000;   // Tight budget.
  Kernel kernel(config);
  std::vector<Column> cols;
  cols.push_back(storage::MakePaperEvalColumn(2'000'000));
  ASSERT_TRUE(
      kernel.RegisterTable(*Table::FromColumns("big", std::move(cols))).ok());
  const auto obj = kernel.CreateColumnObject(
      "big", "values", RectCm{2.0, 1.0, 2.0, 10.0});
  ASSERT_TRUE(obj.ok());
  ASSERT_TRUE(kernel.SetAction(*obj, ActionConfig::Summary(10)).ok());
  TraceBuilder builder(kernel.device());
  kernel.Replay(builder.Slide("s", PointCm{3.0, 1.0}, PointCm{3.0, 11.0},
                              MotionProfile::Constant(1.0)));
  const auto& stats = kernel.stats();
  ASSERT_GT(stats.entries_returned, 0);
  // No touch scanned more than the budget.
  EXPECT_LE(stats.rows_scanned / stats.entries_returned,
            config.max_rows_per_touch);
}

}  // namespace
}  // namespace dbtouch::core
