// Unit and property tests for the incremental operators: running
// aggregates, interactive summaries, predicates, symmetric join, group-by.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "exec/adaptive_filter.h"
#include "exec/aggregate.h"
#include "exec/groupby.h"
#include "exec/join.h"
#include "exec/predicate.h"
#include "exec/summary.h"
#include "storage/column.h"
#include "storage/datagen.h"

namespace dbtouch::exec {
namespace {

using storage::Column;
using storage::RowId;

TEST(RunningAggregateTest, CountSumAvg) {
  RunningAggregate count(AggKind::kCount);
  RunningAggregate sum(AggKind::kSum);
  RunningAggregate avg(AggKind::kAvg);
  for (const double v : {1.0, 2.0, 3.0, 4.0}) {
    count.Add(v);
    sum.Add(v);
    avg.Add(v);
  }
  EXPECT_DOUBLE_EQ(count.value(), 4.0);
  EXPECT_DOUBLE_EQ(sum.value(), 10.0);
  EXPECT_DOUBLE_EQ(avg.value(), 2.5);
}

TEST(RunningAggregateTest, AvgRoundsAsSumOverCount) {
  // avg keeps one sequential sum and divides at read time; it is not a
  // running mean, so its bits are exactly sum / count at every prefix.
  Rng rng(11);
  RunningAggregate count(AggKind::kCount);
  RunningAggregate sum(AggKind::kSum);
  RunningAggregate avg(AggKind::kAvg);
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.NextGaussian() * 3.0 + 10.0;
    count.Add(v);
    sum.Add(v);
    avg.Add(v);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(avg.value()),
              std::bit_cast<std::uint64_t>(sum.value() / count.value()))
        << "after " << i + 1 << " values";
  }
}

// The documented op sequence of kSum and kAvg, written out on its own:
// the row at position p goes to lane p mod 8, each lane adds its rows in
// ascending order, and the lanes combine as
// ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7)).
double LaneSumReference(const std::vector<double>& values) {
  double lane[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  for (std::size_t p = 0; p < values.size(); ++p) {
    lane[p % 8] += values[p];
  }
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

double SequentialSum(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return sum;
}

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Values whose sequential sum and lane sum differ in the last bits: one
// large value absorbs small ones one at a time in a sequential sum, while
// the other lanes add the small ones among themselves first.
// (int32 cannot hold a value that large; its sums are exact in either
// order, so it only checks that every path agrees.)
template <typename T>
std::vector<T> LaneSensitiveValues(std::size_t n) {
  T large;
  if constexpr (std::is_same_v<T, std::int32_t>) {
    large = std::numeric_limits<std::int32_t>::max();
  } else {
    large = static_cast<T>(1e16);
  }
  Rng rng(0x1a7e);
  std::vector<T> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = i % 37 == 0 ? large
                            : static_cast<T>(rng.NextBounded(1000) + 1);
  }
  return values;
}

template <typename T>
void ExpectLaneOrder(const char* type) {
  SCOPED_TRACE(type);
  const std::vector<T> values = LaneSensitiveValues<T>(203);
  std::vector<double> as_double;
  for (const T v : values) {
    as_double.push_back(static_cast<double>(v));
  }
  const double want_sum = LaneSumReference(as_double);
  const double want_avg =
      want_sum / static_cast<double>(as_double.size());

  for (const AggKind kind : {AggKind::kSum, AggKind::kAvg}) {
    const std::uint64_t want =
        Bits(kind == AggKind::kSum ? want_sum : want_avg);
    RunningAggregate per_row(kind);
    for (const double v : as_double) {
      per_row.Add(v);
    }
    EXPECT_EQ(Bits(per_row.value()), want) << AggKindName(kind) << " Add";
    // A span may start at any lane: feed `offset` rows through Add, so
    // the aggregate's count is not a multiple of the lane count, then the
    // rest as one span (long enough for a main loop) or as pieces of 3.
    for (std::size_t offset = 0; offset < 16; ++offset) {
      RunningAggregate whole(kind);
      RunningAggregate pieces(kind);
      for (std::size_t i = 0; i < offset; ++i) {
        whole.Add(as_double[i]);
        pieces.Add(as_double[i]);
      }
      whole.AddSpan(values.data() + offset,
                    static_cast<std::int64_t>(values.size() - offset));
      for (std::size_t i = offset; i < values.size(); i += 3) {
        pieces.AddSpan(values.data() + i,
                       static_cast<std::int64_t>(
                           std::min<std::size_t>(3, values.size() - i)));
      }
      EXPECT_EQ(whole.count(), static_cast<std::int64_t>(values.size()));
      EXPECT_EQ(Bits(whole.value()), want)
          << AggKindName(kind) << " AddSpan from offset " << offset;
      EXPECT_EQ(Bits(pieces.value()), want)
          << AggKindName(kind) << " AddSpan in pieces from offset "
          << offset;
    }
  }
}

TEST(RunningAggregateTest, SumAndAvgFollowTheLaneOrder) {
  // The data must tell the two orders apart, or this test pins nothing.
  std::vector<double> doubles;
  for (const double v : LaneSensitiveValues<double>(203)) {
    doubles.push_back(v);
  }
  ASSERT_NE(Bits(SequentialSum(doubles)), Bits(LaneSumReference(doubles)));

  ExpectLaneOrder<std::int32_t>("int32");
  ExpectLaneOrder<std::int64_t>("int64");
  ExpectLaneOrder<float>("float");
  ExpectLaneOrder<double>("double");
}

TEST(RunningAggregateTest, MinMax) {
  RunningAggregate mn(AggKind::kMin);
  RunningAggregate mx(AggKind::kMax);
  for (const double v : {3.0, -1.0, 7.0, 0.0}) {
    mn.Add(v);
    mx.Add(v);
  }
  EXPECT_DOUBLE_EQ(mn.value(), -1.0);
  EXPECT_DOUBLE_EQ(mx.value(), 7.0);
}

TEST(RunningAggregateTest, VarianceMatchesTwoPass) {
  Rng rng(3);
  std::vector<double> xs;
  RunningAggregate var(AggKind::kVariance);
  RunningAggregate sd(AggKind::kStdDev);
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.NextGaussian() * 3.0 + 10.0;
    xs.push_back(v);
    var.Add(v);
    sd.Add(v);
  }
  double mean = 0.0;
  for (const double v : xs) {
    mean += v;
  }
  mean /= static_cast<double>(xs.size());
  double two_pass = 0.0;
  for (const double v : xs) {
    two_pass += (v - mean) * (v - mean);
  }
  two_pass /= static_cast<double>(xs.size());
  EXPECT_NEAR(var.value(), two_pass, 1e-9);
  EXPECT_NEAR(sd.value(), std::sqrt(two_pass), 1e-9);
}

TEST(RunningAggregateTest, EmptyIsNaNExceptCount) {
  EXPECT_DOUBLE_EQ(RunningAggregate(AggKind::kCount).value(), 0.0);
  EXPECT_TRUE(std::isnan(RunningAggregate(AggKind::kAvg).value()));
  EXPECT_TRUE(std::isnan(RunningAggregate(AggKind::kMin).value()));
}

TEST(RunningAggregateTest, ResetClears) {
  RunningAggregate agg(AggKind::kSum);
  agg.Add(5.0);
  agg.Reset();
  EXPECT_EQ(agg.count(), 0);
  agg.Add(2.0);
  EXPECT_DOUBLE_EQ(agg.value(), 2.0);
}

TEST(TouchedAggregateTest, DeduplicatesRevisits) {
  const Column c = Column::FromInt32("c", {10, 20, 30});
  TouchedAggregateOp op(c.View(), AggKind::kSum);
  EXPECT_TRUE(op.Feed(0));
  EXPECT_TRUE(op.Feed(1));
  EXPECT_FALSE(op.Feed(0));  // Back-and-forth slide revisits row 0.
  EXPECT_DOUBLE_EQ(op.value(), 30.0);
  EXPECT_EQ(op.rows_seen(), 2);
  EXPECT_NEAR(op.coverage(), 2.0 / 3.0, 1e-12);
}

TEST(TouchedAggregateTest, OutOfRangeIgnored) {
  const Column c = Column::FromInt32("c", {1});
  TouchedAggregateOp op(c.View(), AggKind::kSum);
  EXPECT_FALSE(op.Feed(-1));
  EXPECT_FALSE(op.Feed(5));
  EXPECT_EQ(op.rows_seen(), 0);
}

TEST(TouchedAggregateTest, OrderIndependence) {
  // Property (paper: users walk the data in any direction/order): the
  // final aggregate is order-independent.
  const Column c = storage::GenUniformInt32("c", 500, 0, 100, 21);
  std::vector<RowId> order_a;
  std::vector<RowId> order_b;
  for (RowId r = 0; r < 500; ++r) {
    order_a.push_back(r);
    order_b.push_back(499 - r);
  }
  TouchedAggregateOp a(c.View(), AggKind::kAvg);
  TouchedAggregateOp b(c.View(), AggKind::kAvg);
  for (const RowId r : order_a) {
    a.Feed(r);
  }
  for (const RowId r : order_b) {
    b.Feed(r);
  }
  EXPECT_NEAR(a.value(), b.value(), 1e-9);
}

TEST(SummaryTest, WindowAveragesMatchManual) {
  const Column c = Column::FromInt32("c", {0, 10, 20, 30, 40, 50});
  InteractiveSummaryOp op(c.View(), /*k=*/1);
  const SummaryResult mid = op.ComputeAt(2);
  EXPECT_EQ(mid.first, 1);
  EXPECT_EQ(mid.last, 3);
  EXPECT_EQ(mid.rows, 3);
  EXPECT_DOUBLE_EQ(mid.value, 20.0);
}

TEST(SummaryTest, WindowClampsAtEdges) {
  const Column c = Column::FromInt32("c", {0, 10, 20, 30, 40, 50});
  InteractiveSummaryOp op(c.View(), /*k=*/2);
  const SummaryResult top = op.ComputeAt(0);
  EXPECT_EQ(top.first, 0);
  EXPECT_EQ(top.last, 2);
  EXPECT_DOUBLE_EQ(top.value, 10.0);
  const SummaryResult bottom = op.ComputeAt(5);
  EXPECT_EQ(bottom.first, 3);
  EXPECT_EQ(bottom.last, 5);
}

TEST(SummaryTest, HugeKClampsToTheColumn) {
  const Column c = Column::FromInt32("c", {1, 2, 3, 4});
  InteractiveSummaryOp op(c.View(), std::numeric_limits<std::int64_t>::max());
  const SummaryResult r = op.ComputeAt(1);
  EXPECT_EQ(r.first, 0);
  EXPECT_EQ(r.last, 3);
  EXPECT_EQ(r.rows, 4);
  EXPECT_DOUBLE_EQ(r.value, 2.5);
}

TEST(SummaryTest, CenterClampsOutOfRange) {
  const Column c = Column::FromInt32("c", {1, 2, 3});
  InteractiveSummaryOp op(c.View(), 0);
  EXPECT_EQ(op.ComputeAt(-5).center, 0);
  EXPECT_EQ(op.ComputeAt(99).center, 2);
}

TEST(SummaryTest, KZeroIsPointRead) {
  const Column c = Column::FromInt32("c", {7, 8, 9});
  InteractiveSummaryOp op(c.View(), 0);
  const SummaryResult r = op.ComputeAt(1);
  EXPECT_EQ(r.rows, 1);
  EXPECT_DOUBLE_EQ(r.value, 8.0);
}

TEST(SummaryTest, RowsScannedAccumulates) {
  const Column c = storage::GenUniformInt32("c", 1000, 0, 9, 2);
  InteractiveSummaryOp op(c.View(), 10);
  op.ComputeAt(500);
  op.ComputeAt(501);
  EXPECT_EQ(op.rows_scanned(), 42);  // 21 + 21.
}

TEST(SummaryTest, SupportsOtherAggKinds) {
  const Column c = Column::FromInt32("c", {5, 1, 9, 3});
  InteractiveSummaryOp mx(c.View(), 3, AggKind::kMax);
  EXPECT_DOUBLE_EQ(mx.ComputeAt(1).value, 9.0);
  InteractiveSummaryOp mn(c.View(), 3, AggKind::kMin);
  EXPECT_DOUBLE_EQ(mn.ComputeAt(1).value, 1.0);
}

TEST(PredicateTest, AllOperators) {
  EXPECT_TRUE(Predicate(CompareOp::kLt, 5).Matches(4));
  EXPECT_FALSE(Predicate(CompareOp::kLt, 5).Matches(5));
  EXPECT_TRUE(Predicate(CompareOp::kLe, 5).Matches(5));
  EXPECT_TRUE(Predicate(CompareOp::kEq, 5).Matches(5));
  EXPECT_TRUE(Predicate(CompareOp::kNe, 5).Matches(4));
  EXPECT_TRUE(Predicate(CompareOp::kGe, 5).Matches(5));
  EXPECT_TRUE(Predicate(CompareOp::kGt, 5).Matches(6));
  EXPECT_TRUE(Predicate(2.0, 4.0).Matches(3.0));
  EXPECT_FALSE(Predicate(2.0, 4.0).Matches(4.5));
}

TEST(PredicateTest, ToStringReadable) {
  EXPECT_EQ(Predicate(CompareOp::kLt, 10).ToString(), "< 10");
  EXPECT_EQ(Predicate(1.0, 2.0).ToString(), "between 1 and 2");
}

TEST(FilteredScanTest, TracksSelectivity) {
  const Column c = Column::FromInt32("c", {1, 5, 10, 15, 20});
  FilteredScanOp op(c.View(), Predicate(CompareOp::kGt, 9));
  int passes = 0;
  for (RowId r = 0; r < 5; ++r) {
    if (op.Feed(r)) {
      ++passes;
    }
  }
  EXPECT_EQ(passes, 3);
  EXPECT_EQ(op.rows_fed(), 5);
  EXPECT_EQ(op.rows_passed(), 3);
  EXPECT_DOUBLE_EQ(op.observed_selectivity(), 0.6);
}

TEST(FilteredScanTest, OutOfRangeDoesNotCount) {
  const Column c = Column::FromInt32("c", {1});
  FilteredScanOp op(c.View(), Predicate(CompareOp::kGt, 0));
  EXPECT_FALSE(op.Feed(10));
  EXPECT_EQ(op.rows_fed(), 0);
}

TEST(SymmetricJoinTest, MatchesAppearWhenBothSidesTouched) {
  const Column left = Column::FromInt32("l", {1, 2, 3});
  const Column right = Column::FromInt32("r", {2, 3, 4});
  SymmetricHashJoin join(left.View(), right.View());
  EXPECT_TRUE(join.Feed(JoinSide::kLeft, 1).empty());  // key 2, no partner.
  const auto matches = join.Feed(JoinSide::kRight, 0);  // key 2 -> match.
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].left_row, 1);
  EXPECT_EQ(matches[0].right_row, 0);
  EXPECT_EQ(matches[0].key, 2);
}

TEST(SymmetricJoinTest, RevisitsDoNotDuplicate) {
  const Column left = Column::FromInt32("l", {7});
  const Column right = Column::FromInt32("r", {7});
  SymmetricHashJoin join(left.View(), right.View());
  join.Feed(JoinSide::kLeft, 0);
  EXPECT_EQ(join.Feed(JoinSide::kRight, 0).size(), 1u);
  EXPECT_TRUE(join.Feed(JoinSide::kRight, 0).empty());
  EXPECT_TRUE(join.Feed(JoinSide::kLeft, 0).empty());
  EXPECT_EQ(join.matches().size(), 1u);
}

TEST(SymmetricJoinTest, DuplicateKeysProduceAllPairs) {
  const Column left = Column::FromInt32("l", {5, 5});
  const Column right = Column::FromInt32("r", {5, 5, 5});
  SymmetricHashJoin join(left.View(), right.View());
  for (RowId r = 0; r < 2; ++r) {
    join.Feed(JoinSide::kLeft, r);
  }
  for (RowId r = 0; r < 3; ++r) {
    join.Feed(JoinSide::kRight, r);
  }
  EXPECT_EQ(join.matches().size(), 6u);  // 2 x 3 pairs.
}

TEST(SymmetricJoinTest, EquivalentToNestedLoopReference) {
  // Property: feeding any interleaving produces exactly the nested-loop
  // match set of the *fed* subsets.
  const Column left = storage::GenUniformInt32("l", 200, 0, 20, 31);
  const Column right = storage::GenUniformInt32("r", 300, 0, 20, 32);
  Rng rng(33);
  SymmetricHashJoin join(left.View(), right.View());
  std::vector<RowId> fed_left;
  std::vector<RowId> fed_right;
  for (int i = 0; i < 150; ++i) {
    if (rng.NextBernoulli(0.5)) {
      const RowId r = static_cast<RowId>(rng.NextBounded(200));
      if (std::find(fed_left.begin(), fed_left.end(), r) == fed_left.end()) {
        fed_left.push_back(r);
      }
      join.Feed(JoinSide::kLeft, r);
    } else {
      const RowId r = static_cast<RowId>(rng.NextBounded(300));
      if (std::find(fed_right.begin(), fed_right.end(), r) ==
          fed_right.end()) {
        fed_right.push_back(r);
      }
      join.Feed(JoinSide::kRight, r);
    }
  }
  std::vector<JoinMatch> reference;
  for (const RowId l : fed_left) {
    for (const RowId r : fed_right) {
      if (left.View().GetInt32(l) == right.View().GetInt32(r)) {
        reference.push_back(
            JoinMatch{l, r, left.View().GetInt32(l)});
      }
    }
  }
  auto key = [](const JoinMatch& m) {
    return m.left_row * 1000 + m.right_row;
  };
  auto sorted = join.matches();
  std::sort(sorted.begin(), sorted.end(),
            [&](const auto& a, const auto& b) { return key(a) < key(b); });
  std::sort(reference.begin(), reference.end(),
            [&](const auto& a, const auto& b) { return key(a) < key(b); });
  EXPECT_EQ(sorted, reference);
}

TEST(SymmetricJoinTest, CostCountersTrackFeeds) {
  const Column left = Column::FromInt32("l", {1, 2});
  const Column right = Column::FromInt32("r", {1});
  SymmetricHashJoin join(left.View(), right.View());
  join.Feed(JoinSide::kLeft, 0);
  join.Feed(JoinSide::kLeft, 1);
  join.Feed(JoinSide::kRight, 0);
  EXPECT_EQ(join.left_fed(), 2);
  EXPECT_EQ(join.right_fed(), 1);
  EXPECT_EQ(join.hash_entries(), 3);
}

TEST(GroupByTest, GroupsAccreteIncrementally) {
  const Column keys = Column::FromInt32("k", {1, 2, 1, 2, 3});
  const Column vals = Column::FromDouble("v", {10, 20, 30, 40, 50});
  IncrementalGroupBy gb(keys.View(), vals.View(), AggKind::kSum);
  gb.Feed(0);
  gb.Feed(1);
  EXPECT_EQ(gb.num_groups(), 2);
  gb.Feed(2);
  gb.Feed(3);
  gb.Feed(4);
  const auto snapshot = gb.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].key, 1);
  EXPECT_DOUBLE_EQ(snapshot[0].value, 40.0);
  EXPECT_EQ(snapshot[1].key, 2);
  EXPECT_DOUBLE_EQ(snapshot[1].value, 60.0);
  EXPECT_EQ(snapshot[2].count, 1);
}

TEST(GroupByTest, RevisitsIgnored) {
  const Column keys = Column::FromInt32("k", {1});
  const Column vals = Column::FromDouble("v", {10});
  IncrementalGroupBy gb(keys.View(), vals.View(), AggKind::kSum);
  EXPECT_TRUE(gb.Feed(0));
  EXPECT_FALSE(gb.Feed(0));
  EXPECT_DOUBLE_EQ(gb.Snapshot()[0].value, 10.0);
}

// ---- Adaptive predicate ordering (paper Section 2.9 "Optimization") ----

/// Data whose properties flip between halves: predicate A is selective on
/// the first half only, predicate B on the second half only.
struct AdaptiveFixture {
  AdaptiveFixture()
      : a("a", storage::DataType::kInt32),
        b("b", storage::DataType::kInt32) {
    constexpr std::int64_t kHalf = 4000;
    Rng rng(71);
    for (std::int64_t i = 0; i < 2 * kHalf; ++i) {
      const bool first_half = i < kHalf;
      // Value 1 passes "== 1". In its selective half a predicate passes
      // 10% of rows; in the other half 90%.
      a.AppendInt32(rng.NextBernoulli(first_half ? 0.1 : 0.9) ? 1 : 0);
      b.AppendInt32(rng.NextBernoulli(first_half ? 0.9 : 0.1) ? 1 : 0);
    }
  }

  AdaptiveConjunctionOp MakeOp(const AdaptiveConjunctionConfig& config) {
    return AdaptiveConjunctionOp(
        {{a.View(), Predicate(CompareOp::kEq, 1.0)},
         {b.View(), Predicate(CompareOp::kEq, 1.0)}},
        a.row_count(), config);
  }

  Column a;
  Column b;
};

TEST(AdaptiveFilterTest, ConjunctionSemanticsMatchReference) {
  AdaptiveFixture fx;
  AdaptiveConjunctionOp op = fx.MakeOp({});
  for (RowId r = 0; r < fx.a.row_count(); ++r) {
    const bool expected =
        fx.a.View().GetInt32(r) == 1 && fx.b.View().GetInt32(r) == 1;
    EXPECT_EQ(op.Feed(r), expected) << "row " << r;
  }
}

TEST(AdaptiveFilterTest, OrderAdaptsPerRegion) {
  AdaptiveFixture fx;
  AdaptiveConjunctionConfig config;
  config.num_regions = 2;
  config.warmup_evals = 16;
  AdaptiveConjunctionOp op = fx.MakeOp(config);
  for (RowId r = 0; r < fx.a.row_count(); ++r) {
    op.Feed(r);
  }
  // First half: A selective -> A first. Second half: B selective.
  EXPECT_EQ(op.RegionOrder(0)[0], 0u);
  EXPECT_EQ(op.RegionOrder(1)[0], 1u);
}

TEST(AdaptiveFilterTest, AdaptiveBeatsFixedOrderOnShiftingData) {
  AdaptiveFixture fx;
  AdaptiveConjunctionConfig adaptive_config;
  adaptive_config.num_regions = 64;
  AdaptiveConjunctionOp adaptive = fx.MakeOp(adaptive_config);
  // A "fixed order" optimizer is the degenerate single-region case warmed
  // on global statistics — its one order cannot fit both halves.
  AdaptiveConjunctionConfig fixed_config;
  fixed_config.num_regions = 1;
  AdaptiveConjunctionOp fixed = fx.MakeOp(fixed_config);
  for (RowId r = 0; r < fx.a.row_count(); ++r) {
    adaptive.Feed(r);
    fixed.Feed(r);
  }
  EXPECT_LT(adaptive.evaluations(), fixed.evaluations());
  // Lower bound sanity: every row costs at least one evaluation.
  EXPECT_GE(adaptive.evaluations(), adaptive.rows_fed());
}

TEST(AdaptiveFilterTest, OutOfRangeRowsIgnored) {
  AdaptiveFixture fx;
  AdaptiveConjunctionOp op = fx.MakeOp({});
  EXPECT_FALSE(op.Feed(-1));
  EXPECT_FALSE(op.Feed(1 << 30));
  EXPECT_EQ(op.rows_fed(), 0);
  EXPECT_EQ(op.evaluations(), 0);
}

TEST(AdaptiveFilterTest, RegionOfPartitionsEvenly) {
  AdaptiveFixture fx;
  AdaptiveConjunctionConfig config;
  config.num_regions = 8;
  AdaptiveConjunctionOp op = fx.MakeOp(config);
  EXPECT_EQ(op.RegionOf(0), 0);
  EXPECT_EQ(op.RegionOf(fx.a.row_count() - 1), 7);
  EXPECT_EQ(op.RegionOf(fx.a.row_count() / 2), 4);
}

TEST(GroupByTest, Int64KeysWork) {
  const Column keys = Column::FromInt64("k", {1'000'000'000'000LL,
                                              1'000'000'000'000LL, 2});
  const Column vals = Column::FromDouble("v", {1, 2, 3});
  IncrementalGroupBy gb(keys.View(), vals.View(), AggKind::kCount);
  for (RowId r = 0; r < 3; ++r) {
    gb.Feed(r);
  }
  const auto snap = gb.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[1].key, 1'000'000'000'000LL);
  EXPECT_EQ(snap[1].count, 2);
}

}  // namespace
}  // namespace dbtouch::exec
