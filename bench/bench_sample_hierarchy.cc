// ABL-SAMPLE — paper Section 2.6 "Sample-based Storage": feeding a slide
// from the sample level matched to object size & gesture speed vs always
// reading base data.
//
// With summaries at coarse granularity, a base-data band covers
// stride*(2k+1) entries per touch while the matched sample level reads
// just 2k+1 — the sample hierarchy is what keeps per-touch work constant
// as data grows.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "core/kernel.h"
#include "sampling/sample_hierarchy.h"
#include "sim/motion_profile.h"
#include "sim/trace_builder.h"
#include "storage/datagen.h"

namespace {

using dbtouch::core::ActionConfig;
using dbtouch::core::Kernel;
using dbtouch::core::KernelConfig;
using dbtouch::sim::MotionProfile;
using dbtouch::sim::PointCm;
using dbtouch::sim::TraceBuilder;
using dbtouch::storage::Column;
using dbtouch::storage::Table;
using dbtouch::touch::RectCm;

struct RunResult {
  std::int64_t entries = 0;
  std::int64_t rows_scanned = 0;
  double wall_ms = 0.0;
  double max_touch_ms = 0.0;
};

RunResult RunSlide(std::int64_t rows, bool use_sampling) {
  KernelConfig config;
  config.use_sampling = use_sampling;
  Kernel kernel(config);
  std::vector<Column> cols;
  cols.push_back(dbtouch::storage::MakePaperEvalColumn(rows));
  (void)kernel.RegisterTable(*Table::FromColumns("eval", std::move(cols)));
  const auto obj = kernel.CreateColumnObject("eval", "values",
                                             RectCm{2.0, 1.0, 2.0, 10.0});
  (void)kernel.SetAction(*obj, ActionConfig::Summary(10));
  TraceBuilder builder(kernel.device());
  const auto trace = builder.Slide("s", PointCm{3.0, 1.0},
                                   PointCm{3.0, 11.0},
                                   MotionProfile::Constant(2.0));
  // Each touch is timed around OnTouch: the whole per-touch path, from
  // the recognizer to the emitted results.
  RunResult out;
  for (const dbtouch::sim::TouchEvent& event : trace.events) {
    const auto t0 = std::chrono::steady_clock::now();
    kernel.OnTouch(event);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    out.wall_ms += ms;
    out.max_touch_ms = std::max(out.max_touch_ms, ms);
  }
  out.entries = kernel.stats().entries_returned;
  out.rows_scanned = kernel.stats().rows_scanned;
  return out;
}

void PrintReport() {
  dbtouch::bench::Banner(
      "ABL-SAMPLE", "paper Section 2.6 'Sample-based Storage'",
      "Per-slide cost feeding from the matched sample level vs always\n"
      "reading base data (2s summary slide, k=10, 10cm object).");

  std::printf("\n");
  dbtouch::bench::Table table({"rows", "mode", "entries", "rows_scanned",
                               "exec_ms", "max_touch_ms"});
  for (const std::int64_t rows :
       {std::int64_t{100'000}, std::int64_t{1'000'000},
        std::int64_t{10'000'000}}) {
    for (const bool sampling : {true, false}) {
      const RunResult r = RunSlide(rows, sampling);
      table.Row({dbtouch::bench::Fmt(rows),
                 sampling ? "sample-level" : "base-data",
                 dbtouch::bench::Fmt(r.entries),
                 dbtouch::bench::Fmt(r.rows_scanned),
                 dbtouch::bench::Fmt(r.wall_ms, 2),
                 dbtouch::bench::Fmt(r.max_touch_ms, 3)});
    }
  }
  std::printf(
      "\nSample-level reads stay ~constant per touch as data grows 100x;\n"
      "base-data bands grow with the touch granularity (rows/positions).\n\n");

  // Hierarchy construction cost / memory.
  dbtouch::bench::Table build({"rows", "levels", "sample_MiB",
                               "build_ms"});
  for (const std::int64_t rows :
       {std::int64_t{1'000'000}, std::int64_t{10'000'000}}) {
    const Column base = dbtouch::storage::MakePaperEvalColumn(rows);
    const auto t0 = std::chrono::steady_clock::now();
    const auto h =
        dbtouch::sampling::SampleHierarchy::Build(*base.PagedSource());
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (!h.ok()) {
      std::abort();
    }
    build.Row({dbtouch::bench::Fmt(rows),
               dbtouch::bench::Fmt(static_cast<std::int64_t>(h->num_levels())),
               dbtouch::bench::Fmt(
                   static_cast<double>(h->sample_bytes()) / (1024.0 * 1024.0),
                   2),
               dbtouch::bench::Fmt(ms, 1)});
  }
  std::printf("\n");
}

void BM_SummaryAtLevel(benchmark::State& state) {
  const bool sampling = state.range(0) == 1;
  const RunResult r = RunSlide(1'000'000, sampling);
  benchmark::DoNotOptimize(r.entries);
  for (auto _ : state) {
    const RunResult rr = RunSlide(1'000'000, sampling);
    benchmark::DoNotOptimize(rr.rows_scanned);
  }
  state.SetLabel(sampling ? "sample-level" : "base-data");
}
BENCHMARK(BM_SummaryAtLevel)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
