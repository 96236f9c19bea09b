// Parity battery for the vectorized span kernels (exec/span_kernels.h).
//
// Every kernel claims bit-identity with the per-row cursor path it
// replaces, across SIMD dispatch tiers. These tests pin that contract
// down directly: each kernel runs against a hand-written per-row
// reference that replays the scalar path (GetAsDouble + RunningAggregate
// ::Add / Predicate::Matches), over ragged span lengths that exercise
// every vector-tail combination, with NaN/infinity/extreme payloads, and
// at forced-scalar vs hardware dispatch for bitwise cross-checks.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/aggregate.h"
#include "exec/predicate.h"
#include "exec/span_kernels.h"
#include "storage/column.h"
#include "storage/dictionary.h"
#include "storage/types.h"

namespace dbtouch {
namespace {

using exec::AggKind;
using exec::CompareOp;
using exec::MinMaxState;
using exec::Predicate;
using exec::RunningAggregate;
using exec::SimdLevel;
using storage::ColumnView;
using storage::DataType;
using storage::RowId;

// Span lengths chosen to hit every AVX2 lane/tail split: empty, below one
// vector, exact vectors, one past, and large-with-ragged-tail.
constexpr std::int64_t kSizes[] = {0, 1, 3, 4, 7, 8, 9, 31, 32, 33, 1000, 1023};

template <typename T>
ColumnView ViewOf(const std::vector<T>& values, DataType type) {
  // Empty vectors may hand out a null data(); give zero-row spans a real
  // (aligned) address so the kernels see "contiguous span of 0 rows"
  // rather than declining on the null pointer.
  alignas(8) static const std::byte kEmpty[8] = {};
  const std::byte* data = values.empty()
                              ? kEmpty
                              : reinterpret_cast<const std::byte*>(
                                    values.data());
  return ColumnView(type, data, sizeof(T),
                    static_cast<std::int64_t>(values.size()));
}

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// The scalar reference the kernels must replay: GetAsDouble per row into
// the exact `if (v < min_)` update discipline.
MinMaxState ReferenceMinMax(const ColumnView& view) {
  MinMaxState state;
  for (RowId row = 0; row < view.row_count(); ++row) {
    const double v = view.GetAsDouble(row);
    ++state.count;
    if (v < state.min) {
      state.min = v;
    }
    if (v > state.max) {
      state.max = v;
    }
  }
  return state;
}

std::vector<RowId> ReferenceFilter(const ColumnView& view,
                                   const Predicate& predicate,
                                   RowId first_row) {
  std::vector<RowId> rows;
  for (RowId row = 0; row < view.row_count(); ++row) {
    if (predicate.Matches(view.GetAsDouble(row))) {
      rows.push_back(first_row + row);
    }
  }
  return rows;
}

template <typename T>
std::vector<T> FillInts(Rng& rng, std::int64_t n) {
  std::vector<T> values(static_cast<std::size_t>(n));
  for (auto& v : values) {
    // Full-range values, including both extremes somewhere in the stream.
    v = static_cast<T>(rng.NextUint64());
  }
  if (n >= 4) {
    values[static_cast<std::size_t>(n / 3)] = std::numeric_limits<T>::min();
    values[static_cast<std::size_t>(2 * n / 3)] = std::numeric_limits<T>::max();
  }
  return values;
}

template <typename T>
std::vector<T> FillFloats(Rng& rng, std::int64_t n, bool with_nans) {
  std::vector<T> values(static_cast<std::size_t>(n));
  for (auto& v : values) {
    v = static_cast<T>(rng.NextDouble(-1e6, 1e6));
  }
  if (n >= 8) {
    values[1] = std::numeric_limits<T>::infinity();
    values[static_cast<std::size_t>(n / 2)] =
        -std::numeric_limits<T>::infinity();
    // -0.0 next to a strictly smaller value so the zero is never the
    // min/max extreme (the +-0.0 lane-partition caveat in the header).
    values[3] = static_cast<T>(-0.0);
    values[4] = static_cast<T>(-1.0);
    if (with_nans) {
      values[0] = std::numeric_limits<T>::quiet_NaN();
      values[static_cast<std::size_t>(n - 1)] =
          std::numeric_limits<T>::quiet_NaN();
    }
  }
  return values;
}

// Finite values over ~18 decades with random signs, so sums round at
// almost every add and any reordering would show in the low bits.
template <typename T>
std::vector<T> FillSpread(Rng& rng, std::int64_t n) {
  std::vector<T> values(static_cast<std::size_t>(n));
  for (auto& v : values) {
    const int exponent = static_cast<int>(rng.NextBounded(60)) - 30;
    v = static_cast<T>(std::ldexp(rng.NextDouble(-1.0, 1.0), exponent));
  }
  return values;
}

// Cuts [0, n) into consecutive piece lengths: all `piece` long (the last
// one shorter) when `piece` > 0, else seeded lengths in [0, 40] (empty
// pieces included).
std::vector<std::int64_t> SplitLengths(Rng& rng, std::int64_t n,
                                       std::int64_t piece) {
  std::vector<std::int64_t> lengths;
  for (std::int64_t left = n; left > 0;) {
    const std::int64_t len = std::min<std::int64_t>(
        left, piece > 0 ? piece
                        : static_cast<std::int64_t>(rng.NextBounded(41)));
    lengths.push_back(len);
    left -= len;
  }
  return lengths;
}

void ExpectMinMaxEq(const MinMaxState& got, const MinMaxState& want) {
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(Bits(got.min), Bits(want.min));
  EXPECT_EQ(Bits(got.max), Bits(want.max));
}

class SpanKernelsTest : public ::testing::Test {
 protected:
  void SetUp() override { hardware_level_ = exec::ActiveSimdLevel(); }
  void TearDown() override { exec::SetSimdLevelForTest(hardware_level_); }

  SimdLevel hardware_level_ = SimdLevel::kScalar;
};

TEST_F(SpanKernelsTest, MinMaxMatchesScalarReferenceAllTypes) {
  Rng rng(0xb10cc);
  for (const std::int64_t n : kSizes) {
    const auto i32 = FillInts<std::int32_t>(rng, n);
    const auto i64 = FillInts<std::int64_t>(rng, n);
    const auto f32 = FillFloats<float>(rng, n, /*with_nans=*/false);
    const auto f64 = FillFloats<double>(rng, n, /*with_nans=*/false);
    const ColumnView views[] = {
        ViewOf(i32, DataType::kInt32), ViewOf(i64, DataType::kInt64),
        ViewOf(f32, DataType::kFloat), ViewOf(f64, DataType::kDouble)};
    for (const ColumnView& view : views) {
      SCOPED_TRACE(testing::Message()
                   << "n=" << n << " type=" << static_cast<int>(view.type()));
      const MinMaxState want = ReferenceMinMax(view);
      for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
        exec::SetSimdLevelForTest(level);
        MinMaxState got;
        ASSERT_TRUE(exec::MinMaxSpan(view, &got));
        ExpectMinMaxEq(got, want);
      }
    }
  }
}

TEST_F(SpanKernelsTest, MinMaxSkipsNaNsLikeScalarComparison) {
  Rng rng(0x7a9);
  for (const std::int64_t n : {8L, 33L, 1023L}) {
    const auto f32 = FillFloats<float>(rng, n, /*with_nans=*/true);
    const auto f64 = FillFloats<double>(rng, n, /*with_nans=*/true);
    // All-NaN span: count advances, min/max keep their +-infinity seeds.
    const std::vector<double> all_nan(
        static_cast<std::size_t>(n), std::numeric_limits<double>::quiet_NaN());
    const ColumnView views[] = {ViewOf(f32, DataType::kFloat),
                                ViewOf(f64, DataType::kDouble),
                                ViewOf(all_nan, DataType::kDouble)};
    for (const ColumnView& view : views) {
      SCOPED_TRACE(testing::Message()
                   << "n=" << n << " type=" << static_cast<int>(view.type()));
      const MinMaxState want = ReferenceMinMax(view);
      for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
        exec::SetSimdLevelForTest(level);
        MinMaxState got;
        ASSERT_TRUE(exec::MinMaxSpan(view, &got));
        ExpectMinMaxEq(got, want);
      }
    }
  }
}

TEST_F(SpanKernelsTest, MinMaxAccumulatesAcrossSpans) {
  // Feeding two spans into one state must equal feeding the concatenation
  // — the zone-map builder and summary path accumulate block by block.
  Rng rng(0xacc);
  const auto head = FillFloats<double>(rng, 100, false);
  const auto tail = FillFloats<double>(rng, 37, false);
  std::vector<double> all = head;
  all.insert(all.end(), tail.begin(), tail.end());

  MinMaxState split;
  ASSERT_TRUE(exec::MinMaxSpan(ViewOf(head, DataType::kDouble), &split));
  ASSERT_TRUE(exec::MinMaxSpan(ViewOf(tail, DataType::kDouble), &split));
  ExpectMinMaxEq(split, ReferenceMinMax(ViewOf(all, DataType::kDouble)));
}

TEST_F(SpanKernelsTest, AggregateSpanBitIdenticalToCursorFeed) {
  Rng rng(0x5e9);
  const AggKind kinds[] = {AggKind::kCount,    AggKind::kSum,
                           AggKind::kAvg,      AggKind::kMin,
                           AggKind::kMax,      AggKind::kVariance,
                           AggKind::kStdDev};
  for (const std::int64_t n : kSizes) {
    const auto i32 = FillInts<std::int32_t>(rng, n);
    const auto f64 = FillFloats<double>(rng, n, /*with_nans=*/false);
    const ColumnView views[] = {ViewOf(i32, DataType::kInt32),
                                ViewOf(f64, DataType::kDouble)};
    for (const ColumnView& view : views) {
      for (const AggKind kind : kinds) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << n << " type=" << static_cast<int>(view.type())
                     << " kind=" << static_cast<int>(kind));
        // The reference is the cursor path's exact op sequence: GetAsDouble
        // per ascending row into RunningAggregate::Add.
        RunningAggregate want(kind);
        for (RowId row = 0; row < view.row_count(); ++row) {
          want.Add(view.GetAsDouble(row));
        }
        RunningAggregate got(kind);
        ASSERT_TRUE(exec::AggregateSpan(view, &got));
        EXPECT_EQ(got.count(), want.count());
        EXPECT_EQ(Bits(got.value()), Bits(want.value()));
      }
    }
  }
}

TEST_F(SpanKernelsTest, AggregateSpanBitIdenticalUnderAnySplit) {
  // A summary window reaches AggregateSpan cut at block edges that depend
  // on the tier and on where the window sits. Every kind, the
  // order-dependent sum/avg/variance included, must give the same bits
  // whether the span arrives whole, cut anywhere (down to single rows),
  // or row by row through Add. Pieces of 7 and 9 rows start every piece
  // after the first at a new offset into the sum's 8 lanes.
  Rng rng(0x5b117);
  constexpr std::int64_t kRows = 517;
  const auto i32 = FillInts<std::int32_t>(rng, kRows);
  const auto i64 = FillInts<std::int64_t>(rng, kRows);
  const auto f32 = FillSpread<float>(rng, kRows);
  const auto f64 = FillSpread<double>(rng, kRows);
  const ColumnView views[] = {
      ViewOf(i32, DataType::kInt32), ViewOf(i64, DataType::kInt64),
      ViewOf(f32, DataType::kFloat), ViewOf(f64, DataType::kDouble)};
  const AggKind kinds[] = {AggKind::kCount,    AggKind::kSum,
                           AggKind::kAvg,      AggKind::kMin,
                           AggKind::kMax,      AggKind::kVariance,
                           AggKind::kStdDev};
  for (const ColumnView& view : views) {
    for (const AggKind kind : kinds) {
      SCOPED_TRACE(testing::Message()
                   << "type=" << static_cast<int>(view.type())
                   << " kind=" << exec::AggKindName(kind));
      RunningAggregate want(kind);
      for (RowId row = 0; row < view.row_count(); ++row) {
        want.Add(view.GetAsDouble(row));
      }
      RunningAggregate whole(kind);
      ASSERT_TRUE(exec::AggregateSpan(view, &whole));
      EXPECT_EQ(whole.count(), want.count());
      EXPECT_EQ(Bits(whole.value()), Bits(want.value()));
      // Fixed pieces of 1, 7 and 9 rows, then three seeded cuttings.
      for (const std::int64_t piece : {1, 7, 9, 0, 0, 0}) {
        RunningAggregate split(kind);
        RowId first = 0;
        for (const std::int64_t len :
             SplitLengths(rng, view.row_count(), piece)) {
          ASSERT_TRUE(exec::AggregateSpan(view.Slice(first, len), &split));
          first += len;
        }
        EXPECT_EQ(split.count(), want.count()) << "piece " << piece;
        EXPECT_EQ(Bits(split.value()), Bits(want.value()))
            << "piece " << piece;
      }
    }
  }
}

TEST_F(SpanKernelsTest, FilterSpanMatchesPerRowAllOps) {
  Rng rng(0xf117);
  const Predicate predicates[] = {
      Predicate(CompareOp::kLt, 0.0),   Predicate(CompareOp::kLe, 250.0),
      Predicate(CompareOp::kEq, 42.0),  Predicate(CompareOp::kNe, 42.0),
      Predicate(CompareOp::kGe, -10.0), Predicate(CompareOp::kGt, 1e5),
      Predicate(-500.0, 500.0)};
  for (const std::int64_t n : kSizes) {
    auto i32 = FillInts<std::int32_t>(rng, n);
    auto f64 = FillFloats<double>(rng, n, /*with_nans=*/true);
    // Plant exact-equality hits so kEq/kNe see both outcomes.
    for (std::size_t i = 5; i < i32.size(); i += 7) {
      i32[i] = 42;
    }
    for (std::size_t i = 5; i < f64.size(); i += 7) {
      f64[i] = 42.0;
    }
    const ColumnView views[] = {ViewOf(i32, DataType::kInt32),
                                ViewOf(f64, DataType::kDouble)};
    for (const ColumnView& view : views) {
      for (const Predicate& predicate : predicates) {
        const RowId first_row = 4096;
        const std::vector<RowId> want =
            ReferenceFilter(view, predicate, first_row);
        for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
          SCOPED_TRACE(testing::Message()
                       << "n=" << n << " type="
                       << static_cast<int>(view.type()) << " op="
                       << exec::CompareOpName(predicate.op()) << " level="
                       << exec::SimdLevelName(level));
          exec::SetSimdLevelForTest(level);
          std::vector<RowId> got;
          std::int64_t passed = 0;
          ASSERT_TRUE(exec::FilterSpan(view, predicate, first_row, &got,
                                       &passed));
          EXPECT_EQ(got, want);
          EXPECT_EQ(passed, static_cast<std::int64_t>(want.size()));

          // Count-only form agrees with the materializing form.
          std::int64_t count_only = 0;
          ASSERT_TRUE(exec::FilterSpan(view, predicate, first_row, nullptr,
                                       &count_only));
          EXPECT_EQ(count_only, passed);
        }
      }
    }
  }
}

TEST_F(SpanKernelsTest, FilterSelectedRefinesLikePerRow) {
  Rng rng(0x5e1);
  const auto f64 = FillFloats<double>(rng, 1023, /*with_nans=*/true);
  const ColumnView view = ViewOf(f64, DataType::kDouble);
  // A strided candidate selection, as a second predicate stage sees.
  std::vector<RowId> in_rows;
  for (RowId row = 0; row < view.row_count(); row += 3) {
    in_rows.push_back(row);
  }
  const Predicate predicate(CompareOp::kGt, 0.0);
  std::vector<RowId> want;
  for (const RowId row : in_rows) {
    if (predicate.Matches(view.GetAsDouble(row))) {
      want.push_back(row);
    }
  }
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    exec::SetSimdLevelForTest(level);
    std::vector<RowId> got;
    ASSERT_TRUE(exec::FilterSelected(view, predicate, in_rows, &got));
    EXPECT_EQ(got, want) << exec::SimdLevelName(level);
  }
}

TEST_F(SpanKernelsTest, NonSpanLayoutsFallBackUntouched) {
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  // Strided (row-major) view: stride wider than the field.
  const ColumnView strided(DataType::kDouble,
                           reinterpret_cast<const std::byte*>(values.data()),
                           /*stride=*/16, /*row_count=*/2);
  // Dictionary-coded string view: codes are numeric but the kernels must
  // decline (the cursor path owns string semantics).
  const std::vector<std::int32_t> codes = {0, 1, 0, 2};
  storage::Dictionary dict;
  const ColumnView strings(DataType::kString,
                           reinterpret_cast<const std::byte*>(codes.data()),
                           sizeof(std::int32_t),
                           static_cast<std::int64_t>(codes.size()), &dict);
  for (const ColumnView& view : {strided, strings}) {
    MinMaxState state;
    state.count = 7;
    EXPECT_FALSE(exec::MinMaxSpan(view, &state));
    EXPECT_EQ(state.count, 7);  // untouched on fallback

    RunningAggregate agg(AggKind::kSum);
    EXPECT_FALSE(exec::AggregateSpan(view, &agg));
    EXPECT_EQ(agg.count(), 0);

    std::vector<RowId> rows;
    std::int64_t passed = 0;
    EXPECT_FALSE(
        exec::FilterSpan(view, Predicate(CompareOp::kLt, 10.0), 0, &rows,
                         &passed));
    EXPECT_TRUE(rows.empty());
    EXPECT_EQ(passed, 0);

    std::vector<RowId> out;
    EXPECT_FALSE(exec::FilterSelected(view, Predicate(CompareOp::kLt, 10.0),
                                      {0, 1}, &out));
    EXPECT_TRUE(out.empty());
  }
}

TEST_F(SpanKernelsTest, SimdLevelOverrideClampsAndRestores) {
  exec::SetSimdLevelForTest(SimdLevel::kScalar);
  EXPECT_EQ(exec::ActiveSimdLevel(), SimdLevel::kScalar);
  exec::SetSimdLevelForTest(SimdLevel::kAvx2);
  // Clamped to hardware: either honored or degraded to scalar, never UB.
  const SimdLevel active = exec::ActiveSimdLevel();
  EXPECT_TRUE(active == SimdLevel::kAvx2 || active == SimdLevel::kScalar);
  exec::SetSimdLevelForTest(hardware_level_);
  EXPECT_EQ(exec::ActiveSimdLevel(), hardware_level_);
}

}  // namespace
}  // namespace dbtouch
