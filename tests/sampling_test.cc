// Unit and property tests for the sample hierarchy and level policy.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/macros.h"
#include "sampling/level_policy.h"
#include "sampling/sample_hierarchy.h"
#include "storage/datagen.h"

namespace dbtouch::sampling {
namespace {

using storage::Column;
using storage::ColumnView;
using storage::RowId;

Column MakeSequential(std::int64_t n) {
  Column c("seq", storage::DataType::kInt32);
  c.Reserve(n);
  for (std::int64_t i = 0; i < n; ++i) {
    c.AppendInt32(static_cast<std::int32_t>(i));
  }
  return c;
}

/// Builds over `base`'s zero-copy source, `rows_per_block` rows a block
/// (0 = the whole column as one block).
SampleHierarchy BuildOver(const Column& base,
                          const SampleHierarchyConfig& config = {},
                          std::int64_t rows_per_block = 0) {
  Result<SampleHierarchy> h =
      SampleHierarchy::Build(*base.PagedSource(rows_per_block), config);
  DBTOUCH_CHECK_OK(h.status());  // A zero-copy source cannot fail.
  return std::move(h).value();
}

TEST(SampleHierarchyTest, LevelZeroIsTheBaseAndIsNotCopied) {
  const Column base = MakeSequential(10000);
  const SampleHierarchy h = BuildOver(base);
  EXPECT_EQ(h.LevelRows(0), 10000);
  EXPECT_EQ(h.LevelStride(0), 1);
  // The copies are levels 1 and up only.
  std::int64_t copied = 0;
  for (int l = 1; l < h.num_levels(); ++l) {
    copied += h.LevelRows(l);
  }
  EXPECT_EQ(h.sample_bytes(),
            static_cast<std::size_t>(copied) * sizeof(std::int32_t));
}

TEST(SampleHierarchyTest, LevelCountRespectsMinRows) {
  const Column base = MakeSequential(10000);
  SampleHierarchyConfig config;
  config.min_level_rows = 1000;
  const SampleHierarchy h = BuildOver(base, config);
  // 10000 -> 5000 -> 2500 -> 1250 -> 625(too small): levels 0..3.
  EXPECT_EQ(h.num_levels(), 4);
}

TEST(SampleHierarchyTest, LevelRowsHalve) {
  const Column base = MakeSequential(1 << 14);
  SampleHierarchyConfig config;
  config.min_level_rows = 256;
  const SampleHierarchy h = BuildOver(base, config);
  for (int l = 1; l < h.num_levels(); ++l) {
    EXPECT_EQ(h.LevelRows(l), (1 << 14) >> l);
    EXPECT_EQ(h.LevelView(l).row_count(), (1 << 14) >> l);
  }
}

TEST(SampleHierarchyTest, SampleRowsHoldStridedBaseValues) {
  const Column base = MakeSequential(4096);
  const SampleHierarchy h = BuildOver(base);
  for (int l = 1; l < h.num_levels(); ++l) {
    const ColumnView level = h.LevelView(l);
    const std::int64_t stride = h.LevelStride(l);
    for (RowId s = 0; s < level.row_count(); ++s) {
      EXPECT_EQ(level.GetInt32(s), s * stride)
          << "level " << l << " sample row " << s;
    }
  }
}

// The base is read block by block: any block size, odd ones included
// (a block may then start on an odd row), gives the same copies.
TEST(SampleHierarchyTest, EveryBlockSizeBuildsTheSameLevels) {
  const Column base = MakeSequential(5001);
  const SampleHierarchy whole = BuildOver(base);
  ASSERT_GT(whole.num_levels(), 3);
  for (const std::int64_t rows_per_block : {1, 7, 64, 1000}) {
    const SampleHierarchy paged = BuildOver(base, {}, rows_per_block);
    ASSERT_EQ(paged.num_levels(), whole.num_levels());
    for (int l = 1; l < whole.num_levels(); ++l) {
      const ColumnView want = whole.LevelView(l);
      const ColumnView got = paged.LevelView(l);
      ASSERT_EQ(got.row_count(), want.row_count());
      for (RowId s = 0; s < want.row_count(); ++s) {
        ASSERT_EQ(got.GetInt32(s), want.GetInt32(s))
            << rows_per_block << " rows a block, level " << l << " row " << s;
      }
    }
  }
}

/// A zero-copy source whose block `bad` cannot be read.
class FailingSource final : public storage::PagedColumnSource {
 public:
  FailingSource(const Column& column, std::int64_t rows_per_block,
                std::int64_t bad)
      : inner_(column.View(), rows_per_block), bad_(bad) {}
  storage::DataType type() const override { return inner_.type(); }
  std::int64_t row_count() const override { return inner_.row_count(); }
  std::int64_t rows_per_block() const override {
    return inner_.rows_per_block();
  }
  Result<storage::BlockPin> PinBlock(std::int64_t block,
                                     RowId row_hint) override {
    ++pins_;
    if (block == bad_) {
      return Status::Internal("unreadable block " + std::to_string(block));
    }
    return inner_.PinBlock(block, row_hint);
  }
  int pins() const { return pins_; }

 protected:
  void UnpinBlock(std::int64_t, std::uintptr_t) override {}

 private:
  storage::UnpagedColumnSource inner_;
  std::int64_t bad_;
  int pins_ = 0;
};

TEST(SampleHierarchyTest, AnUnreadableBlockFailsTheBuild) {
  const Column base = MakeSequential(4096);
  FailingSource source(base, 512, /*bad=*/5);
  const Result<SampleHierarchy> h = SampleHierarchy::Build(source);
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kInternal);
  EXPECT_EQ(source.pins(), 6);  // Blocks 0..5, each pinned once.
}

TEST(SampleHierarchyTest, RowMappingsRoundTrip) {
  const Column base = MakeSequential(100000);
  const SampleHierarchy h = BuildOver(base);
  for (int l = 0; l < h.num_levels(); ++l) {
    for (const RowId base_row : {0L, 17L, 99999L, 51200L}) {
      const RowId s = h.FromBaseRow(l, base_row);
      const RowId back = h.ToBaseRow(l, s);
      EXPECT_LE(back, base_row);
      EXPECT_GT(back + h.LevelStride(l), base_row);
    }
  }
}

TEST(SampleHierarchyTest, SampleBytesGeometricBound) {
  const Column base = MakeSequential(1 << 18);
  const SampleHierarchy h = BuildOver(base);
  // Sum of all levels above base is < base size (geometric series).
  EXPECT_LT(h.sample_bytes(), base.raw_size());
}

TEST(SampleHierarchyTest, WorksForDoubles) {
  const Column base =
      storage::GenGaussianDouble("g", 8192, 10.0, 1.0, 42);
  const SampleHierarchy h = BuildOver(base);
  const ColumnView l2 = h.LevelView(2);
  for (RowId s = 0; s < 16; ++s) {
    EXPECT_DOUBLE_EQ(l2.GetDouble(s), base.View().GetDouble(s * 4));
  }
}

TEST(SampleHierarchyTest, TinyBaseHasSingleLevel) {
  const Column base = MakeSequential(10);
  const SampleHierarchy h = BuildOver(base);
  EXPECT_EQ(h.num_levels(), 1);
}

TEST(LevelPolicyTest, FinePositionsUseBase) {
  // 1000 rows over 2000 positions: every tuple individually addressable.
  EXPECT_EQ(ChooseLevel(1000, 2000, 1.0, 8), 0);
}

TEST(LevelPolicyTest, CoarseObjectsUseHighLevels) {
  // 10^7 rows over ~520 positions (10cm at 52/cm): stride ~19230 -> level 14.
  const int level = ChooseLevel(10'000'000, 520, 1.0, 20);
  EXPECT_GE(level, 13);
  EXPECT_LE(level, 15);
}

TEST(LevelPolicyTest, ClampsToAvailableLevels) {
  EXPECT_EQ(ChooseLevel(10'000'000, 520, 1.0, 5), 4);
}

TEST(LevelPolicyTest, FasterGesturesCoarsen) {
  const int slow = ChooseLevel(10'000'000, 520, 1.0, 20);
  const int fast = ChooseLevel(10'000'000, 520, 8.0, 20);
  EXPECT_GT(fast, slow);
}

TEST(LevelPolicyTest, SpeedWeightZeroDisablesCoarsening) {
  LevelPolicyConfig config;
  config.speed_weight = 0.0;
  const int slow = ChooseLevel(10'000'000, 520, 1.0, 20, config);
  const int fast = ChooseLevel(10'000'000, 520, 8.0, 20, config);
  EXPECT_EQ(fast, slow);
}

TEST(LevelPolicyTest, NonFiniteSpeedsNeverReachABadCast) {
  const double inf = std::numeric_limits<double>::infinity();
  // An infinite speed skips everything: the coarsest level.
  EXPECT_EQ(ChooseLevel(10'000'000, 520, inf, 20), 19);
  EXPECT_EQ(ChooseLevel(1'000, 2'000, inf, 8), 7);
  // A NaN speed counts as a slow finger.
  EXPECT_EQ(ChooseLevel(10'000'000, 520, std::nan(""), 20),
            ChooseLevel(10'000'000, 520, 1.0, 20));
  // Without speed coarsening even an infinite speed changes nothing.
  LevelPolicyConfig config;
  config.speed_weight = 0.0;
  EXPECT_EQ(ChooseLevel(10'000'000, 520, inf, 20, config),
            ChooseLevel(10'000'000, 520, 1.0, 20, config));
  // Shedding saturates at the coarsest level.
  config.shed_levels = std::numeric_limits<int>::max();
  EXPECT_EQ(ChooseLevel(10'000'000, 520, 1.0, 20, config), 19);
}

TEST(LevelPolicyTest, DegenerateInputsReturnBase) {
  EXPECT_EQ(ChooseLevel(0, 100, 1.0, 8), 0);
  EXPECT_EQ(ChooseLevel(100, 0, 1.0, 8), 0);
  EXPECT_EQ(ChooseLevel(100, 100, 1.0, 1), 0);
}

// Property sweep: the chosen level's stride never exceeds the touch
// distance more than the configured overshoot, and never wastes more than
// 2x (the next level up would also have fit).
class LevelPolicyPropertyTest
    : public testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {
};

TEST_P(LevelPolicyPropertyTest, StrideMatchesTouchDistance) {
  const auto [rows, positions] = GetParam();
  const int level = ChooseLevel(rows, positions, 1.0, 30);
  const double rows_per_position =
      static_cast<double>(rows) / static_cast<double>(positions);
  const double stride = static_cast<double>(std::int64_t{1} << level);
  EXPECT_LE(stride, std::max(rows_per_position, 1.0))
      << "level overshoots touch distance";
  if (level + 1 < 30 && rows_per_position >= 2.0) {
    EXPECT_GT(stride * 2.0, rows_per_position / 2.0)
        << "level is needlessly fine";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LevelPolicyPropertyTest,
    testing::Combine(testing::Values<std::int64_t>(1'000, 100'000, 10'000'000,
                                                   1'000'000'000),
                     testing::Values<std::int64_t>(52, 520, 1040, 5200)));

}  // namespace
}  // namespace dbtouch::sampling
