// ABL-INDEX — paper Section 2.6 "Indexing": index support for filtered
// exploration. Zone maps prune summary bands that cannot match a
// predicate; the sorted index turns a value-range question into a direct
// lookup.

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/bench_util.h"
#include "index/sorted_index.h"
#include "index/zone_map.h"
#include "storage/datagen.h"

namespace {

using dbtouch::index::SortedIndex;
using dbtouch::index::ZoneMap;
using dbtouch::storage::Column;
using dbtouch::storage::RowId;
using Clock = std::chrono::steady_clock;

constexpr std::int64_t kRows = 10'000'000;

double Ms(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

void PrintReport() {
  dbtouch::bench::Banner(
      "ABL-INDEX", "paper Section 2.6 'Indexing'",
      "Filtered exploration with index support. Predicate: values in a\n"
      "narrow range (selectivity sweep). Work compared: full scan vs\n"
      "zone-map pruned scan vs sorted-index lookup.");

  const Column column = dbtouch::storage::MakePaperEvalColumn(kRows);
  const auto view = column.View();

  const auto build_zm_t0 = Clock::now();
  const ZoneMap zone_map(view, 65'536);
  const double zm_build_ms = Ms(build_zm_t0);
  const auto build_si_t0 = Clock::now();
  const SortedIndex sorted(view);
  const double si_build_ms = Ms(build_si_t0);

  std::printf("\nBuild cost: zone map %.1f ms (%lld zones), sorted index "
              "%.1f ms.\n\n",
              zm_build_ms, static_cast<long long>(zone_map.num_zones()),
              si_build_ms);

  dbtouch::bench::Table table({"selectivity", "method", "rows_touched",
                               "matches", "ms"});
  for (const double width : {10.0, 1'000.0, 100'000.0}) {
    const double lo = 500'000.0 - width / 2.0;
    const double hi = 500'000.0 + width / 2.0;
    const double selectivity = width / 1'000'000.0;

    // Full scan.
    {
      const auto t0 = Clock::now();
      std::int64_t matches = 0;
      for (RowId r = 0; r < kRows; ++r) {
        const double v = view.GetAsDouble(r);
        if (v >= lo && v <= hi) {
          ++matches;
        }
      }
      table.Row({dbtouch::bench::Fmt(selectivity, 6), "full-scan",
                 dbtouch::bench::Fmt(kRows), dbtouch::bench::Fmt(matches),
                 dbtouch::bench::Fmt(Ms(t0), 1)});
    }
    // Zone-map pruned scan. (Uniform data: zones rarely prune whole
    // regions for wide ranges, which is itself informative.)
    {
      const auto t0 = Clock::now();
      std::int64_t matches = 0;
      std::int64_t touched = 0;
      for (const auto& zone : zone_map.MatchingZones(lo, hi)) {
        for (RowId r = zone.first; r <= zone.last; ++r) {
          ++touched;
          const double v = view.GetAsDouble(r);
          if (v >= lo && v <= hi) {
            ++matches;
          }
        }
      }
      table.Row({dbtouch::bench::Fmt(selectivity, 6), "zone-map",
                 dbtouch::bench::Fmt(touched),
                 dbtouch::bench::Fmt(matches),
                 dbtouch::bench::Fmt(Ms(t0), 1)});
    }
    // Sorted index.
    {
      const auto t0 = Clock::now();
      const std::int64_t matches = sorted.CountInValueRange(lo, hi);
      table.Row({dbtouch::bench::Fmt(selectivity, 6), "sorted-index",
                 dbtouch::bench::Fmt(
                     static_cast<std::int64_t>(matches)),
                 dbtouch::bench::Fmt(matches),
                 dbtouch::bench::Fmt(Ms(t0), 3)});
    }
  }
  std::printf(
      "\nOn uniform data zone maps cannot prune (every zone spans the full\n"
      "value range) — the sorted index is the only sublinear path. On\n"
      "clustered data zone maps prune nearly everything:\n\n");

  // Clustered data: zone maps shine.
  Column clustered = dbtouch::storage::GenSegmentedDouble(
      "seg", kRows, {0.0, 100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0},
      5.0, 9);
  const ZoneMap zm2(clustered.View(), 65'536);
  const auto zones = zm2.MatchingZones(395.0, 405.0);
  std::int64_t zone_rows = 0;
  for (const auto& z : zones) {
    zone_rows += z.last - z.first + 1;
  }
  std::printf("clustered data, range [395,405]: %zu of %lld zones match "
              "(%lld of %lld rows scanned)\n\n",
              zones.size(), static_cast<long long>(zm2.num_zones()),
              static_cast<long long>(zone_rows),
              static_cast<long long>(kRows));
}

void BM_ZoneMapProbe(benchmark::State& state) {
  const Column column = dbtouch::storage::MakePaperEvalColumn(1'000'000);
  const ZoneMap zm(column.View(), 4096);
  RowId row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(zm.MayMatch(row, 100.0, 200.0));
    row = (row + 9973) % 1'000'000;
  }
}
BENCHMARK(BM_ZoneMapProbe);

void BM_SortedIndexCount(benchmark::State& state) {
  const Column column = dbtouch::storage::MakePaperEvalColumn(1'000'000);
  const SortedIndex idx(column.View());
  double lo = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.CountInValueRange(lo, lo + 1000.0));
    lo += 997.0;
    if (lo > 900'000.0) {
      lo = 0.0;
    }
  }
}
BENCHMARK(BM_SortedIndexCount);

}  // namespace

int main(int argc, char** argv) {
  PrintReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
