#include "exec/span_kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <type_traits>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DBTOUCH_X86 1
#else
#define DBTOUCH_X86 0
#endif

namespace dbtouch::exec {
namespace {

SimdLevel DetectSimdLevel() {
#if DBTOUCH_X86
  if (__builtin_cpu_supports("avx2")) {
    return SimdLevel::kAvx2;
  }
#endif
  return SimdLevel::kScalar;
}

SimdLevel HardwareSimdLevel() {
  static const SimdLevel level = DetectSimdLevel();
  return level;
}

SimdLevel InitialSimdLevel() {
  const char* env = std::getenv("DBTOUCH_SIMD");
  if (env != nullptr && std::strcmp(env, "scalar") == 0) {
    return SimdLevel::kScalar;
  }
  // Any other value (including "avx2") means "best available".
  return HardwareSimdLevel();
}

std::atomic<SimdLevel>& ActiveLevelSlot() {
  static std::atomic<SimdLevel> level{InitialSimdLevel()};
  return level;
}

// ---------------------------------------------------------------------------
// Min/max over native-typed spans. Native-domain accumulation then one
// conversion: conversions int32->double, int64->double, float->double are
// monotone, so the converted native minimum IS the minimum of the
// converted values, bit for bit (see span_kernels.h).

template <typename T>
void MinMaxScalarLoop(const T* p, std::int64_t n, T* min_out, T* max_out) {
  T mn = *min_out;
  T mx = *max_out;
  for (std::int64_t i = 0; i < n; ++i) {
    // NaN-skipping by construction for floating T: NaN < mn is false.
    if (p[i] < mn) {
      mn = p[i];
    }
    if (p[i] > mx) {
      mx = p[i];
    }
  }
  *min_out = mn;
  *max_out = mx;
}

// One-sided horizontal reductions for the vector accumulators. The lane
// folds must NOT reuse MinMaxScalarLoop: a lane that only ever saw NaNs
// keeps its +-infinity seed, and feeding the min lanes through a two-sided
// loop would leak that +infinity seed into max_out (and -infinity into
// min_out from the max lanes).
template <typename T>
void ReduceMinLanes(const T* lanes, std::int64_t n, T* min_out) {
  for (std::int64_t i = 0; i < n; ++i) {
    if (lanes[i] < *min_out) {
      *min_out = lanes[i];
    }
  }
}

template <typename T>
void ReduceMaxLanes(const T* lanes, std::int64_t n, T* max_out) {
  for (std::int64_t i = 0; i < n; ++i) {
    if (lanes[i] > *max_out) {
      *max_out = lanes[i];
    }
  }
}

#if DBTOUCH_X86

// _mm256_min_pd(v, acc) keeps acc when v is NaN (the compare is false),
// matching the scalar `if (v < mn)` NaN skip exactly.
__attribute__((target("avx2"))) void MinMaxAvx2F64(const double* p,
                                                   std::int64_t n,
                                                   double* min_out,
                                                   double* max_out) {
  std::int64_t i = 0;
  if (n >= 8) {
    __m256d mn0 = _mm256_set1_pd(*min_out);
    __m256d mx0 = _mm256_set1_pd(*max_out);
    __m256d mn1 = mn0;
    __m256d mx1 = mx0;
    for (; i + 8 <= n; i += 8) {
      const __m256d v0 = _mm256_loadu_pd(p + i);
      const __m256d v1 = _mm256_loadu_pd(p + i + 4);
      mn0 = _mm256_min_pd(v0, mn0);
      mx0 = _mm256_max_pd(v0, mx0);
      mn1 = _mm256_min_pd(v1, mn1);
      mx1 = _mm256_max_pd(v1, mx1);
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, _mm256_min_pd(mn0, mn1));
    ReduceMinLanes(lanes, 4, min_out);
    _mm256_store_pd(lanes, _mm256_max_pd(mx0, mx1));
    ReduceMaxLanes(lanes, 4, max_out);
  }
  MinMaxScalarLoop(p + i, n - i, min_out, max_out);
}

__attribute__((target("avx2"))) void MinMaxAvx2F32(const float* p,
                                                   std::int64_t n,
                                                   float* min_out,
                                                   float* max_out) {
  std::int64_t i = 0;
  if (n >= 8) {
    __m256 mn = _mm256_set1_ps(*min_out);
    __m256 mx = _mm256_set1_ps(*max_out);
    for (; i + 8 <= n; i += 8) {
      const __m256 v = _mm256_loadu_ps(p + i);
      mn = _mm256_min_ps(v, mn);
      mx = _mm256_max_ps(v, mx);
    }
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, mn);
    ReduceMinLanes(lanes, 8, min_out);
    _mm256_store_ps(lanes, mx);
    ReduceMaxLanes(lanes, 8, max_out);
  }
  MinMaxScalarLoop(p + i, n - i, min_out, max_out);
}

__attribute__((target("avx2"))) void MinMaxAvx2I32(const std::int32_t* p,
                                                   std::int64_t n,
                                                   std::int32_t* min_out,
                                                   std::int32_t* max_out) {
  std::int64_t i = 0;
  if (n >= 8) {
    __m256i mn = _mm256_set1_epi32(*min_out);
    __m256i mx = _mm256_set1_epi32(*max_out);
    for (; i + 8 <= n; i += 8) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
      mn = _mm256_min_epi32(v, mn);
      mx = _mm256_max_epi32(v, mx);
    }
    alignas(32) std::int32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), mn);
    ReduceMinLanes(lanes, 8, min_out);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), mx);
    ReduceMaxLanes(lanes, 8, max_out);
  }
  MinMaxScalarLoop(p + i, n - i, min_out, max_out);
}

#endif  // DBTOUCH_X86

template <typename T>
void MinMaxDispatch(const T* p, std::int64_t n, T* min_out, T* max_out) {
#if DBTOUCH_X86
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    if constexpr (std::is_same_v<T, double>) {
      MinMaxAvx2F64(p, n, min_out, max_out);
      return;
    } else if constexpr (std::is_same_v<T, float>) {
      MinMaxAvx2F32(p, n, min_out, max_out);
      return;
    } else if constexpr (std::is_same_v<T, std::int32_t>) {
      MinMaxAvx2I32(p, n, min_out, max_out);
      return;
    }
    // int64: no AVX2 epi64 min/max — scalar loop below (auto-vectorizable
    // with compare+blend by the compiler where profitable).
  }
#endif
  MinMaxScalarLoop(p, n, min_out, max_out);
}

template <typename T>
bool MinMaxTyped(const storage::ColumnView& view, MinMaxState* acc) {
  const T* p = view.TypedData<T>();
  if (p == nullptr) {
    return false;
  }
  const std::int64_t n = view.row_count();
  if (n > 0) {
    // Sentinel seeds, NOT p[0]: a NaN first value would poison a seeded
    // accumulator (every later `v < NaN` compare is false) where the
    // scalar path skips it. Floating types use the +-infinity sentinels
    // RunningAggregate itself uses; integers use their extreme values
    // (an all-extremes span leaves the sentinel in place, which is then
    // also the correct answer).
    T mn;
    T mx;
    if constexpr (std::is_floating_point_v<T>) {
      mn = std::numeric_limits<T>::infinity();
      mx = -std::numeric_limits<T>::infinity();
    } else {
      mn = std::numeric_limits<T>::max();
      mx = std::numeric_limits<T>::lowest();
    }
    MinMaxDispatch(p, n, &mn, &mx);
    // All-NaN floating spans keep the infinity sentinels, and the
    // double-domain merge below leaves acc untouched — exactly what
    // feeding NaNs through RunningAggregate does.
    const double mnd = static_cast<double>(mn);
    const double mxd = static_cast<double>(mx);
    if (mnd < acc->min) {
      acc->min = mnd;
    }
    if (mxd > acc->max) {
      acc->max = mxd;
    }
  }
  acc->count += n;
  return true;
}

// ---------------------------------------------------------------------------
// Aggregation: RunningAggregate::AddSpan runs one tight loop per kind,
// instantiated here once per type — the per-kind op sequence of Add.

template <typename T>
bool AggregateTyped(const storage::ColumnView& view, RunningAggregate* agg) {
  const T* p = view.TypedData<T>();
  if (p == nullptr) {
    return false;
  }
  agg->AddSpan(p, view.row_count());
  return true;
}

// ---------------------------------------------------------------------------
// Filtering. Comparison happens in the double domain with the exact
// conversion GetAsDouble performs, so pass/fail matches Predicate::Matches
// bit for bit. The predicate op is hoisted out of the loop.

template <typename T, typename Pass>
void FilterLoop(const T* p, std::int64_t n, storage::RowId first_row,
                Pass pass, std::vector<storage::RowId>* out_rows,
                std::int64_t* rows_passed) {
  std::int64_t hits = 0;
  if (out_rows != nullptr) {
    for (std::int64_t i = 0; i < n; ++i) {
      if (pass(static_cast<double>(p[i]))) {
        out_rows->push_back(first_row + i);
        ++hits;
      }
    }
  } else {
    for (std::int64_t i = 0; i < n; ++i) {
      hits += pass(static_cast<double>(p[i])) ? 1 : 0;
    }
  }
  *rows_passed += hits;
}

template <typename T>
void FilterTyped(const T* p, std::int64_t n, storage::RowId first_row,
                 const Predicate& predicate,
                 std::vector<storage::RowId>* out_rows,
                 std::int64_t* rows_passed) {
  const double lo = predicate.lo();
  const double hi = predicate.hi();
  switch (predicate.op()) {
    case CompareOp::kLt:
      FilterLoop(p, n, first_row, [lo](double v) { return v < lo; },
                 out_rows, rows_passed);
      return;
    case CompareOp::kLe:
      FilterLoop(p, n, first_row, [lo](double v) { return v <= lo; },
                 out_rows, rows_passed);
      return;
    case CompareOp::kEq:
      FilterLoop(p, n, first_row, [lo](double v) { return v == lo; },
                 out_rows, rows_passed);
      return;
    case CompareOp::kNe:
      FilterLoop(p, n, first_row, [lo](double v) { return v != lo; },
                 out_rows, rows_passed);
      return;
    case CompareOp::kGe:
      FilterLoop(p, n, first_row, [lo](double v) { return v >= lo; },
                 out_rows, rows_passed);
      return;
    case CompareOp::kGt:
      FilterLoop(p, n, first_row, [lo](double v) { return v > lo; },
                 out_rows, rows_passed);
      return;
    case CompareOp::kBetween:
      FilterLoop(p, n, first_row,
                 [lo, hi](double v) { return v >= lo && v <= hi; }, out_rows,
                 rows_passed);
      return;
  }
}

#if DBTOUCH_X86

// 4-wide double compares; the comparison predicates mirror the scalar
// operators' NaN behaviour (ordered compares are false on NaN; != is
// unordered-true, matching `NaN != x`).
__attribute__((target("avx2"))) void FilterAvx2F64(
    const double* p, std::int64_t n, storage::RowId first_row,
    const Predicate& predicate, std::vector<storage::RowId>* out_rows,
    std::int64_t* rows_passed) {
  const __m256d lo = _mm256_set1_pd(predicate.lo());
  const __m256d hi = _mm256_set1_pd(predicate.hi());
  const CompareOp op = predicate.op();
  std::int64_t hits = 0;
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(p + i);
    __m256d mask;
    switch (op) {
      case CompareOp::kLt:
        mask = _mm256_cmp_pd(v, lo, _CMP_LT_OQ);
        break;
      case CompareOp::kLe:
        mask = _mm256_cmp_pd(v, lo, _CMP_LE_OQ);
        break;
      case CompareOp::kEq:
        mask = _mm256_cmp_pd(v, lo, _CMP_EQ_OQ);
        break;
      case CompareOp::kNe:
        mask = _mm256_cmp_pd(v, lo, _CMP_NEQ_UQ);
        break;
      case CompareOp::kGe:
        mask = _mm256_cmp_pd(v, lo, _CMP_GE_OQ);
        break;
      case CompareOp::kGt:
        mask = _mm256_cmp_pd(v, lo, _CMP_GT_OQ);
        break;
      case CompareOp::kBetween:
        mask = _mm256_and_pd(_mm256_cmp_pd(v, lo, _CMP_GE_OQ),
                             _mm256_cmp_pd(v, hi, _CMP_LE_OQ));
        break;
      default:
        mask = _mm256_setzero_pd();
        break;
    }
    int bits = _mm256_movemask_pd(mask);
    if (bits == 0) {
      continue;
    }
    if (out_rows != nullptr) {
      while (bits != 0) {
        const int lane = __builtin_ctz(static_cast<unsigned>(bits));
        out_rows->push_back(first_row + i + lane);
        bits &= bits - 1;
        ++hits;
      }
    } else {
      hits += __builtin_popcount(static_cast<unsigned>(bits));
    }
  }
  *rows_passed += hits;
  if (i < n) {
    FilterTyped(p + i, n - i, first_row + i, predicate, out_rows,
                rows_passed);
  }
}

#endif  // DBTOUCH_X86

}  // namespace

std::string_view SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "?";
}

SimdLevel ActiveSimdLevel() {
  return ActiveLevelSlot().load(std::memory_order_relaxed);
}

void SetSimdLevelForTest(SimdLevel level) {
  if (level > HardwareSimdLevel()) {
    level = SimdLevel::kScalar;
  }
  ActiveLevelSlot().store(level, std::memory_order_relaxed);
}

bool MinMaxSpan(const storage::ColumnView& view, MinMaxState* acc) {
  switch (view.type()) {
    case storage::DataType::kInt32:
      return MinMaxTyped<std::int32_t>(view, acc);
    case storage::DataType::kInt64:
      return MinMaxTyped<std::int64_t>(view, acc);
    case storage::DataType::kFloat:
      return MinMaxTyped<float>(view, acc);
    case storage::DataType::kDouble:
      return MinMaxTyped<double>(view, acc);
    case storage::DataType::kString:
      return false;  // Dictionary codes stay on the cursor path.
  }
  return false;
}

bool AggregateSpan(const storage::ColumnView& view, RunningAggregate* agg) {
  switch (view.type()) {
    case storage::DataType::kInt32:
      return AggregateTyped<std::int32_t>(view, agg);
    case storage::DataType::kInt64:
      return AggregateTyped<std::int64_t>(view, agg);
    case storage::DataType::kFloat:
      return AggregateTyped<float>(view, agg);
    case storage::DataType::kDouble:
      return AggregateTyped<double>(view, agg);
    case storage::DataType::kString:
      return false;
  }
  return false;
}

bool FilterSpan(const storage::ColumnView& view, const Predicate& predicate,
                storage::RowId first_row,
                std::vector<storage::RowId>* out_rows,
                std::int64_t* rows_passed) {
  const std::int64_t n = view.row_count();
  switch (view.type()) {
    case storage::DataType::kInt32: {
      const std::int32_t* p = view.TypedData<std::int32_t>();
      if (p == nullptr) {
        return false;
      }
      FilterTyped(p, n, first_row, predicate, out_rows, rows_passed);
      return true;
    }
    case storage::DataType::kInt64: {
      const std::int64_t* p = view.TypedData<std::int64_t>();
      if (p == nullptr) {
        return false;
      }
      FilterTyped(p, n, first_row, predicate, out_rows, rows_passed);
      return true;
    }
    case storage::DataType::kFloat: {
      const float* p = view.TypedData<float>();
      if (p == nullptr) {
        return false;
      }
      FilterTyped(p, n, first_row, predicate, out_rows, rows_passed);
      return true;
    }
    case storage::DataType::kDouble: {
      const double* p = view.TypedData<double>();
      if (p == nullptr) {
        return false;
      }
#if DBTOUCH_X86
      if (ActiveSimdLevel() == SimdLevel::kAvx2) {
        FilterAvx2F64(p, n, first_row, predicate, out_rows, rows_passed);
        return true;
      }
#endif
      FilterTyped(p, n, first_row, predicate, out_rows, rows_passed);
      return true;
    }
    case storage::DataType::kString:
      return false;
  }
  return false;
}

namespace {

template <typename T>
bool FilterSelectedTyped(const storage::ColumnView& view,
                         const Predicate& predicate,
                         const std::vector<storage::RowId>& in_rows,
                         std::vector<storage::RowId>* out_rows) {
  const T* p = view.TypedData<T>();
  if (p == nullptr) {
    return false;
  }
  for (const storage::RowId row : in_rows) {
    if (predicate.Matches(static_cast<double>(p[row]))) {
      out_rows->push_back(row);
    }
  }
  return true;
}

}  // namespace

bool FilterSelected(const storage::ColumnView& view,
                    const Predicate& predicate,
                    const std::vector<storage::RowId>& in_rows,
                    std::vector<storage::RowId>* out_rows) {
  switch (view.type()) {
    case storage::DataType::kInt32:
      return FilterSelectedTyped<std::int32_t>(view, predicate, in_rows,
                                               out_rows);
    case storage::DataType::kInt64:
      return FilterSelectedTyped<std::int64_t>(view, predicate, in_rows,
                                               out_rows);
    case storage::DataType::kFloat:
      return FilterSelectedTyped<float>(view, predicate, in_rows, out_rows);
    case storage::DataType::kDouble:
      return FilterSelectedTyped<double>(view, predicate, in_rows, out_rows);
    case storage::DataType::kString:
      return false;
  }
  return false;
}

}  // namespace dbtouch::exec
