// Unit tests for gesture extrapolation.

#include <gtest/gtest.h>

#include "prefetch/extrapolator.h"
#include "sim/virtual_clock.h"

namespace dbtouch::prefetch {
namespace {

using sim::Micros;
using sim::SecondsToMicros;

TEST(ExtrapolatorTest, VelocityConvergesToSteadyRate) {
  GestureExtrapolator ex;
  // 1000 rows per 100ms = 10000 rows/s.
  for (int i = 0; i <= 20; ++i) {
    ex.Observe(i * 100'000, i * 1000);
  }
  EXPECT_NEAR(ex.velocity_rows_per_s(), 10'000.0, 500.0);
}

TEST(ExtrapolatorTest, NegativeVelocityForUpwardSlides) {
  GestureExtrapolator ex;
  for (int i = 0; i <= 10; ++i) {
    ex.Observe(i * 100'000, 100'000 - i * 2000);
  }
  EXPECT_LT(ex.velocity_rows_per_s(), -10'000.0);
}

TEST(ExtrapolatorTest, PredictsForwardRange) {
  GestureExtrapolator ex;
  for (int i = 0; i <= 10; ++i) {
    ex.Observe(i * 100'000, i * 1000);
  }
  const RowRange range = ex.PredictRange(1'000'000, 0.5, 1'000'000);
  EXPECT_EQ(range.first, 10'000);
  // ~0.5s at ~10000 rows/s ahead.
  EXPECT_NEAR(static_cast<double>(range.last), 15'000.0, 1'500.0);
}

TEST(ExtrapolatorTest, PredictsBackwardRangeWhenReversing) {
  GestureExtrapolator ex;
  for (int i = 0; i <= 10; ++i) {
    ex.Observe(i * 100'000, 500'000 - i * 1000);
  }
  const RowRange range = ex.PredictRange(1'000'000, 0.5, 1'000'000);
  EXPECT_EQ(range.last, 490'000);
  EXPECT_LT(range.first, 490'000);
}

TEST(ExtrapolatorTest, PauseDetection) {
  GestureExtrapolator ex;
  ex.Observe(0, 100);
  ex.Observe(100'000, 200);
  EXPECT_FALSE(ex.IsPaused(150'000));
  EXPECT_TRUE(ex.IsPaused(SecondsToMicros(1.0)));
}

TEST(ExtrapolatorTest, PausedPredictionIsSymmetric) {
  GestureExtrapolator ex;
  for (int i = 0; i <= 10; ++i) {
    ex.Observe(i * 100'000, i * 1000);
  }
  const Micros later = SecondsToMicros(5.0);
  const RowRange range = ex.PredictRange(later, 0.5, 1'000'000);
  EXPECT_LT(range.first, 10'000);
  EXPECT_GT(range.last, 10'000);
}

TEST(ExtrapolatorTest, ClampsToColumn) {
  GestureExtrapolator ex;
  ex.Observe(0, 10);
  ex.Observe(100'000, 5);
  const RowRange range = ex.PredictRange(200'000, 10.0, 100);
  EXPECT_GE(range.first, 0);
  EXPECT_LE(range.last, 99);
}

TEST(ExtrapolatorTest, NoObservationsPredictEmpty) {
  GestureExtrapolator ex;
  EXPECT_TRUE(ex.PredictRange(0, 1.0, 1000).empty());
}

TEST(ExtrapolatorTest, ResetForgets) {
  GestureExtrapolator ex;
  ex.Observe(0, 100);
  ex.Observe(100'000, 5000);
  ex.Reset();
  EXPECT_DOUBLE_EQ(ex.velocity_rows_per_s(), 0.0);
  EXPECT_TRUE(ex.PredictRange(200'000, 1.0, 10'000).empty());
}

}  // namespace
}  // namespace dbtouch::prefetch
