// Property-based suites: the paper's headline relations and the
// kernel/operator invariants, swept over parameter grids with
// INSTANTIATE_TEST_SUITE_P.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "core/kernel.h"
#include "core/shared_state.h"
#include "exec/join.h"
#include "exec/span_kernels.h"
#include "layout/rotation.h"
#include "sampling/sample_hierarchy.h"
#include "sim/motion_profile.h"
#include "sim/trace_builder.h"
#include "storage/datagen.h"
#include "storage/spill.h"

namespace dbtouch {
namespace {

using core::ActionConfig;
using core::Kernel;
using core::KernelConfig;
using sim::MotionProfile;
using sim::PointCm;
using sim::TraceBuilder;
using storage::Column;
using storage::RowId;
using storage::Table;
using touch::RectCm;

// ---- Paper Figure 4(a) as a property: entries ~ rate * duration --------

class Fig4aProperty
    : public testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(Fig4aProperty, EntriesScaleWithDurationAtAnyRate) {
  const auto [duration_s, touch_hz] = GetParam();
  KernelConfig config;
  config.device.touch_event_hz = touch_hz;
  Kernel kernel(config);
  std::vector<Column> cols;
  cols.push_back(storage::MakePaperEvalColumn(1'000'000));
  ASSERT_TRUE(
      kernel.RegisterTable(*Table::FromColumns("eval", std::move(cols)))
          .ok());
  const auto obj = kernel.CreateColumnObject("eval", "values",
                                             RectCm{2.0, 1.0, 2.0, 10.0});
  ASSERT_TRUE(obj.ok());
  ASSERT_TRUE(kernel.SetAction(*obj, ActionConfig::Summary(10)).ok());
  TraceBuilder builder(kernel.device());
  kernel.Replay(builder.Slide("s", PointCm{3.0, 1.0}, PointCm{3.0, 11.0},
                              MotionProfile::Constant(duration_s)));
  const double expected = touch_hz * duration_s;
  EXPECT_NEAR(static_cast<double>(kernel.stats().entries_returned),
              expected, expected * 0.15 + 2.0);
}

INSTANTIATE_TEST_SUITE_P(
    RateDurationGrid, Fig4aProperty,
    testing::Combine(testing::Values(0.5, 1.0, 2.0, 4.0),
                     testing::Values(15.0, 30.0, 60.0)));

// ---- Paper Figure 4(b) as a property: entries ~ size at fixed speed ----

class Fig4bProperty : public testing::TestWithParam<double> {};

TEST_P(Fig4bProperty, DoublingSizeDoublesEntries) {
  const double size_cm = GetParam();
  const double speed_cm_s = 2.0;
  const auto entries_at = [&](double cm) {
    Kernel kernel;
    std::vector<Column> cols;
    cols.push_back(storage::MakePaperEvalColumn(1'000'000));
    DBTOUCH_CHECK_OK(
        kernel.RegisterTable(*Table::FromColumns("eval", std::move(cols))));
    const auto obj = kernel.CreateColumnObject(
        "eval", "values", RectCm{2.0, 0.5, 2.0, cm});
    DBTOUCH_CHECK_OK(obj.status());
    DBTOUCH_CHECK_OK(kernel.SetAction(*obj, ActionConfig::Summary(10)));
    TraceBuilder builder(kernel.device());
    kernel.Replay(builder.Slide("s", PointCm{3.0, 0.5},
                                PointCm{3.0, 0.5 + cm},
                                MotionProfile::Constant(cm / speed_cm_s)));
    return static_cast<double>(kernel.stats().entries_returned);
  };
  const double small = entries_at(size_cm);
  const double big = entries_at(2.0 * size_cm);
  EXPECT_GT(small, 0.0);
  EXPECT_NEAR(big / small, 2.0, 0.45);
}

INSTANTIATE_TEST_SUITE_P(Sizes, Fig4bProperty,
                         testing::Values(1.5, 2.0, 3.0, 5.0));

// ---- Summary sample-level consistency across grids ----------------------

class SummaryConsistencyProperty
    : public testing::TestWithParam<std::tuple<std::int64_t, double>> {};

TEST_P(SummaryConsistencyProperty, SampleSummaryTracksBaseBandMidpoint) {
  const auto [rows, object_cm] = GetParam();
  Kernel kernel;
  std::vector<Column> cols;
  cols.push_back(storage::GenSequenceInt64("v", rows, 0, 1));
  ASSERT_TRUE(
      kernel.RegisterTable(*Table::FromColumns("seq", std::move(cols)))
          .ok());
  const auto obj = kernel.CreateColumnObject(
      "seq", "v", RectCm{2.0, 0.5, 2.0, object_cm});
  ASSERT_TRUE(obj.ok());
  ASSERT_TRUE(kernel.SetAction(*obj, ActionConfig::Summary(10)).ok());
  TraceBuilder builder(kernel.device());
  kernel.Replay(builder.Slide("s", PointCm{3.0, 0.5},
                              PointCm{3.0, 0.5 + object_cm},
                              MotionProfile::Constant(2.0)));
  ASSERT_GT(kernel.results().size(), 0);
  for (const auto& item : kernel.results().items()) {
    ASSERT_GT(item.rows_aggregated, 0);
    const double stride =
        static_cast<double>(item.band_last - item.band_first + 1) /
        static_cast<double>(item.rows_aggregated);
    const double mid =
        static_cast<double>(item.band_first + item.band_last) / 2.0;
    EXPECT_NEAR(item.value.AsDouble(), mid, std::max(stride, 1.0));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SummaryConsistencyProperty,
    testing::Combine(testing::Values<std::int64_t>(10'000, 300'000,
                                                   2'000'000),
                     testing::Values(4.0, 10.0)));

// ---- Symmetric join == nested loop, across seeds -------------------------

class JoinEquivalenceProperty : public testing::TestWithParam<int> {};

TEST_P(JoinEquivalenceProperty, MatchesNestedLoopReference) {
  const int seed = GetParam();
  const Column left = storage::GenUniformInt32(
      "l", 300, 0, 40, static_cast<std::uint64_t>(seed));
  const Column right = storage::GenUniformInt32(
      "r", 400, 0, 40, static_cast<std::uint64_t>(seed) + 1000);
  Rng rng(static_cast<std::uint64_t>(seed) + 2000);
  exec::SymmetricHashJoin join(left.View(), right.View());
  std::vector<bool> fed_left(300, false);
  std::vector<bool> fed_right(400, false);
  for (int i = 0; i < 250; ++i) {
    if (rng.NextBernoulli(0.5)) {
      const RowId r = static_cast<RowId>(rng.NextBounded(300));
      fed_left[static_cast<std::size_t>(r)] = true;
      join.Feed(exec::JoinSide::kLeft, r);
    } else {
      const RowId r = static_cast<RowId>(rng.NextBounded(400));
      fed_right[static_cast<std::size_t>(r)] = true;
      join.Feed(exec::JoinSide::kRight, r);
    }
  }
  std::int64_t reference = 0;
  for (RowId l = 0; l < 300; ++l) {
    if (!fed_left[static_cast<std::size_t>(l)]) {
      continue;
    }
    for (RowId r = 0; r < 400; ++r) {
      if (fed_right[static_cast<std::size_t>(r)] &&
          left.View().GetInt32(l) == right.View().GetInt32(r)) {
        ++reference;
      }
    }
  }
  EXPECT_EQ(static_cast<std::int64_t>(join.matches().size()), reference);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinEquivalenceProperty,
                         testing::Range(1, 9));

// ---- Rotation identity across shapes and chunk sizes ---------------------

class RotationIdentityProperty
    : public testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {
};

TEST_P(RotationIdentityProperty, RoundTripPreservesEveryCell) {
  const auto [rows, chunk] = GetParam();
  std::vector<Column> cols;
  cols.push_back(storage::GenSequenceInt64("a", rows, 7, 3));
  cols.push_back(storage::GenUniformInt32("b", rows, -100, 100, 11));
  cols.push_back(storage::GenGaussianDouble("c", rows, 0.0, 1.0, 12));
  auto table = *Table::FromColumns("t", std::move(cols));
  // Fingerprint before.
  double checksum = 0.0;
  for (RowId r = 0; r < rows; r += 97) {
    checksum += table->GetValue(r, 0)->ToDouble() +
                table->GetValue(r, 1)->ToDouble() +
                table->GetValue(r, 2)->AsDouble();
  }
  for (const storage::MajorOrder target :
       {storage::MajorOrder::kRowMajor, storage::MajorOrder::kColumnMajor}) {
    layout::IncrementalRotator rotator(table.get(), target, chunk);
    while (!rotator.Step()) {
    }
    ASSERT_TRUE(rotator.Finish().ok());
  }
  double after = 0.0;
  for (RowId r = 0; r < rows; r += 97) {
    after += table->GetValue(r, 0)->ToDouble() +
             table->GetValue(r, 1)->ToDouble() +
             table->GetValue(r, 2)->AsDouble();
  }
  EXPECT_DOUBLE_EQ(checksum, after);
}

INSTANTIATE_TEST_SUITE_P(
    ShapeGrid, RotationIdentityProperty,
    testing::Combine(testing::Values<std::int64_t>(1, 100, 10'000),
                     testing::Values<std::int64_t>(1, 64, 100'000)));

// ---- Sample hierarchy nesting across sizes -------------------------------

class HierarchyNestingProperty : public testing::TestWithParam<std::int64_t> {
};

TEST_P(HierarchyNestingProperty, EachLevelIsEverySecondOfTheLevelBelow) {
  const std::int64_t rows = GetParam();
  const Column base = storage::GenUniformInt32("c", rows, 0, 1'000'000, 3);
  const auto h = sampling::SampleHierarchy::Build(*base.PagedSource());
  ASSERT_TRUE(h.ok()) << h.status();
  for (int level = 1; level < h->num_levels(); ++level) {
    const auto fine = level == 1 ? base.View() : h->LevelView(level - 1);
    const auto coarse = h->LevelView(level);
    for (RowId s = 0; s < coarse.row_count(); ++s) {
      ASSERT_EQ(coarse.GetInt32(s), fine.GetInt32(2 * s))
          << "level " << level << " row " << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, HierarchyNestingProperty,
                         testing::Values<std::int64_t>(1'000, 65'536,
                                                       1'000'000));

// ---- Aggregates are feeding-order independent -----------------------------

class AggregateOrderProperty : public testing::TestWithParam<int> {};

TEST_P(AggregateOrderProperty, ShuffledFeedMatchesSequentialFeed) {
  const int seed = GetParam();
  const Column c = storage::GenGaussianDouble(
      "c", 2'000, 5.0, 2.0, static_cast<std::uint64_t>(seed));
  std::vector<RowId> order(2'000);
  std::iota(order.begin(), order.end(), 0);
  // Deterministic shuffle via seeded rng.
  Rng rng(static_cast<std::uint64_t>(seed) + 7);
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBounded(i + 1)]);
  }
  for (const auto kind :
       {exec::AggKind::kAvg, exec::AggKind::kMin, exec::AggKind::kMax,
        exec::AggKind::kStdDev}) {
    exec::TouchedAggregateOp sequential(c.View(), kind);
    exec::TouchedAggregateOp shuffled(c.View(), kind);
    for (RowId r = 0; r < 2'000; ++r) {
      sequential.Feed(r);
    }
    for (const RowId r : order) {
      shuffled.Feed(r);
    }
    EXPECT_NEAR(sequential.value(), shuffled.value(), 1e-9)
        << AggKindName(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregateOrderProperty,
                         testing::Range(1, 6));

// ---- Storage-tier parity: identical gestures, bit-identical answers --------
//
// The same gesture script — column summaries and taps PLUS fat-table taps
// and a group-by slide — runs against every backend: the paged buffer
// pool over the in-memory table (both with the span kernels' default
// dispatch and with the scalar tier forced), the pool over file-spilled
// columns, the spilled table with its matrix actually reclaimed
// (SpillTable reclaim_raw: every read must come off disk), and the table
// PAX-spilled into one multi-column file — at 10/50/100% buffer budgets.
// The reference is the pool over the in-memory table at a 200% budget,
// which holds the whole table. The storage tier, the SIMD tier and the
// budget are performance knobs; every answer must be bit-identical
// across all. Every run must also keep two pool promises:
// it ends with no block pinned, and residency never exceeded the budget.

enum class Backend {
  kPagedRam,
  kFileSpilled,
  kFileReclaimed,
  kPaxReclaimed,
};

struct TierParityParam {
  Backend backend;
  int budget_pct;
};

/// Everything observable about one answered touch, value as raw bits.
struct AnswerFingerprint {
  core::ResultKind kind;
  RowId row;
  std::uint64_t value_bits;
  RowId band_first;
  RowId band_last;
  std::int64_t rows_aggregated;
  bool approximate;

  friend bool operator==(const AnswerFingerprint&,
                         const AnswerFingerprint&) = default;
};

std::vector<AnswerFingerprint> RunTierScript(Backend backend,
                                             int budget_pct) {
  constexpr std::int64_t kRows = 1 << 15;
  constexpr std::int64_t kRowsPerBlock = 1'024;
  KernelConfig config;
  config.buffer.rows_per_block = kRowsPerBlock;
  config.buffer.budget_bytes = kRows * 8 * budget_pct / 100;

  const auto make_table = [] {
    std::vector<Column> cols;
    cols.push_back(storage::GenSequenceInt64("v", kRows, 0, 1));
    cols.push_back(storage::GenCategorical(
        "g", kRows, {"red", "green", "blue", "grey"}, 11));
    return *Table::FromColumns("tier", std::move(cols));
  };

  const bool spilled = backend == Backend::kFileSpilled ||
                       backend == Backend::kFileReclaimed ||
                       backend == Backend::kPaxReclaimed;
  std::shared_ptr<core::SharedState> shared;
  std::string spill_dir;
  if (spilled) {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "dbtouch_tier_parity_XXXXXX")
                           .string();
    spill_dir = ::mkdtemp(tmpl.data());
    // Same private-state shape a plain Kernel builds (lazy hierarchies),
    // with the columns rebound to their spill files — and, for the
    // reclaimed backend, the matrix actually freed.
    shared = std::make_shared<core::SharedState>(
        config.sampling, config.buffer);
    DBTOUCH_CHECK_OK(shared->RegisterTable(make_table()));
    storage::TableSpiller spiller(
        spill_dir, storage::SpillOptions{.rows_per_block = kRowsPerBlock});
    if (backend == Backend::kPaxReclaimed) {
      DBTOUCH_CHECK_OK(
          shared->SpillTablePax("tier", spiller, /*reclaim_raw=*/true));
    } else {
      DBTOUCH_CHECK_OK(shared->SpillTable(
          "tier", spiller,
          /*reclaim_raw=*/backend != Backend::kFileSpilled));
    }
  }
  Kernel kernel(config, shared);
  if (!spilled) {
    DBTOUCH_CHECK_OK(kernel.RegisterTable(make_table()));
  }
  const auto object = kernel.CreateColumnObject(
      "tier", "v", RectCm{2.0, 1.0, 2.0, 10.0});
  DBTOUCH_CHECK_OK(object.status());
  DBTOUCH_CHECK_OK(
      kernel.SetAction(*object, ActionConfig::Summary(16)));
  // A fat-table object beside the column: taps reveal whole tuples and a
  // slide feeds the tag -> avg(v) group-by — the read paths that used to
  // require the raw matrix.
  const auto fat = kernel.CreateTableObject(
      "tier", RectCm{6.0, 1.0, 3.0, 10.0});
  DBTOUCH_CHECK_OK(fat.status());
  DBTOUCH_CHECK_OK(kernel.SetAction(
      *fat, ActionConfig::GroupBy(1, 0, exec::AggKind::kAvg)));

  // The script mixes speeds (sampled and base-band summaries), direction
  // reversals (gesture-aware admission), point taps, a fat-table tap and
  // a group-by slide.
  TraceBuilder builder(kernel.device());
  kernel.Replay(builder.Slide("down", PointCm{3.0, 1.0},
                              PointCm{3.0, 11.0},
                              MotionProfile::Constant(2.0)));
  kernel.Replay(builder.Slide("flick", PointCm{3.0, 11.0},
                              PointCm{3.0, 4.0},
                              MotionProfile::Constant(0.3),
                              /*start_time_us=*/4'000'000));
  kernel.Replay(builder.Tap("tap-a", PointCm{3.0, 2.5}, 0.05,
                            /*start_time_us=*/6'000'000));
  kernel.Replay(builder.Tap("tap-b", PointCm{3.0, 9.5}, 0.05,
                            /*start_time_us=*/7'000'000));
  kernel.Replay(builder.Tap("fat-tap", PointCm{7.5, 6.0}, 0.05,
                            /*start_time_us=*/8'000'000));
  kernel.Replay(builder.Slide("groupby", PointCm{7.0, 1.0},
                              PointCm{7.0, 11.0},
                              MotionProfile::Constant(1.5),
                              /*start_time_us=*/9'000'000));

  std::vector<AnswerFingerprint> out;
  out.reserve(kernel.results().items().size());
  for (const auto& item : kernel.results().items()) {
    // Numeric answers compare as raw bits; string answers (fat-tap tuple
    // fields decoded through the dictionary) by hash.
    const std::uint64_t bits =
        item.value.is_string()
            ? std::hash<std::string>{}(item.value.AsString())
            : std::bit_cast<std::uint64_t>(item.value.ToDouble());
    out.push_back(AnswerFingerprint{item.kind, item.row, bits,
                                    item.band_first, item.band_last,
                                    item.rows_aggregated,
                                    item.approximate});
  }
  const cache::BufferManager& pool = kernel.shared_state()->buffer_manager();
  const cache::BlockCacheStats pool_stats = pool.stats();
  const std::string run = "backend " +
                          std::to_string(static_cast<int>(backend)) +
                          " at " + std::to_string(budget_pct) + "%";
  EXPECT_EQ(pool_stats.pinned_blocks, 0) << run;
  EXPECT_LE(pool_stats.peak_resident_bytes, pool.config().budget_bytes)
      << run;
  if (!spill_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(spill_dir, ec);
  }
  return out;
}

class TierParityProperty : public testing::TestWithParam<int> {};

TEST_P(TierParityProperty, PagedAndSpilledTiersMatchInMemoryBitForBit) {
  const int budget_pct = GetParam();
  const std::vector<AnswerFingerprint> reference =
      RunTierScript(Backend::kPagedRam, 200);
  ASSERT_GT(reference.size(), 10u);
  const std::vector<AnswerFingerprint> paged =
      RunTierScript(Backend::kPagedRam, budget_pct);
  // The same paged run with the span kernels' SIMD dispatch forced down
  // to the scalar tier: vectorization is a performance knob too.
  const exec::SimdLevel hardware_level = exec::ActiveSimdLevel();
  exec::SetSimdLevelForTest(exec::SimdLevel::kScalar);
  const std::vector<AnswerFingerprint> scalar =
      RunTierScript(Backend::kPagedRam, budget_pct);
  exec::SetSimdLevelForTest(hardware_level);
  const std::vector<AnswerFingerprint> spilled =
      RunTierScript(Backend::kFileSpilled, budget_pct);
  const std::vector<AnswerFingerprint> reclaimed =
      RunTierScript(Backend::kFileReclaimed, budget_pct);
  const std::vector<AnswerFingerprint> pax =
      RunTierScript(Backend::kPaxReclaimed, budget_pct);
  EXPECT_EQ(paged, reference);
  EXPECT_EQ(scalar, reference);
  EXPECT_EQ(spilled, reference);
  EXPECT_EQ(reclaimed, reference);
  EXPECT_EQ(pax, reference);
}

INSTANTIATE_TEST_SUITE_P(BufferBudgets, TierParityProperty,
                         testing::Values(10, 50, 100));

// ---- Gesture classification across the speed/length grid ------------------

class RecognizerClassProperty
    : public testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(RecognizerClassProperty, SlidesAlwaysClassifyAsSlides) {
  const auto [length_cm, duration_s] = GetParam();
  sim::TouchDevice device;
  TraceBuilder builder(device);
  gesture::GestureRecognizer recognizer;
  const auto trace =
      builder.Slide("s", PointCm{2.0, 1.0}, PointCm{2.0, 1.0 + length_cm},
                    MotionProfile::Constant(duration_s));
  int slide_began = 0;
  int slide_ended = 0;
  int others = 0;
  std::vector<gesture::GestureEvent> steps;
  for (const auto& event : trace.events) {
    recognizer.OnTouch(event, &steps);
  }
  for (const auto& g : steps) {
    if (g.type == gesture::GestureType::kSlide) {
      slide_began += g.phase == gesture::GesturePhase::kBegan;
      slide_ended += g.phase == gesture::GesturePhase::kEnded;
    } else {
      ++others;
    }
  }
  EXPECT_EQ(slide_began, 1);
  EXPECT_EQ(slide_ended, 1);
  EXPECT_EQ(others, 0);
}

INSTANTIATE_TEST_SUITE_P(
    SpeedLengthGrid, RecognizerClassProperty,
    testing::Combine(testing::Values(1.0, 5.0, 12.0),
                     testing::Values(0.25, 1.0, 4.0)));

}  // namespace
}  // namespace dbtouch
