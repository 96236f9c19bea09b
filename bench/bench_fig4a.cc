// FIG4A — paper Figure 4(a): "Effect of varying slide gesture speed during
// a slide for interactive summaries."
//
// Set-up reproduced from Section 3: a vertical rectangle object of height
// 10 cm represents a column of 10^7 integer values; interactive summaries
// with average aggregation and 10 data entries per summary; the slide runs
// top to bottom at a constant speed; each run completes in a different
// total time. Measured: number of data entries (summaries) returned.
//
// Paper's claim: slower gestures register more touches and return more
// entries — roughly linearly in gesture duration (~60 entries at 4 s).
//
// Writes BENCH_fig4a.json: entries returned and rows scanned at every point
// of both series, gated exactly (no count depends on the runner), and
// exits non-zero when the trend breaks: entries per second outside
// [13, 16] at 15 Hz or outside [56, 61] at 60 Hz.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/kernel.h"
#include "sim/motion_profile.h"
#include "sim/trace_builder.h"
#include "storage/datagen.h"

namespace {

using dbtouch::core::ActionConfig;
using dbtouch::core::Kernel;
using dbtouch::core::KernelConfig;
using dbtouch::core::ObjectId;
using dbtouch::sim::MotionProfile;
using dbtouch::sim::PointCm;
using dbtouch::sim::TraceBuilder;
using dbtouch::storage::Column;
using dbtouch::storage::Table;
using dbtouch::touch::RectCm;

constexpr std::int64_t kPaperRows = 10'000'000;  // 10^7 integer values.
constexpr double kObjectHeightCm = 10.0;

std::unique_ptr<Kernel> MakePaperKernel(std::int64_t rows,
                                        double touch_hz = 15.0) {
  KernelConfig config;
  config.device.touch_event_hz = touch_hz;
  auto kernel = std::make_unique<Kernel>(config);
  std::vector<Column> cols;
  cols.push_back(dbtouch::storage::MakePaperEvalColumn(rows));
  auto table = Table::FromColumns("eval", std::move(cols));
  if (!kernel->RegisterTable(std::move(table).value()).ok()) {
    std::abort();
  }
  return kernel;
}

ObjectId MakePaperObject(Kernel* kernel) {
  auto id = kernel->CreateColumnObject(
      "eval", "values", RectCm{2.0, 1.0, 2.0, kObjectHeightCm});
  if (!id.ok() ||
      !kernel
           ->SetAction(*id, ActionConfig::Summary(
                                10, dbtouch::exec::AggKind::kAvg))
           .ok()) {
    std::abort();
  }
  return *id;
}

struct SlideCounts {
  std::int64_t entries = 0;
  std::int64_t rows_scanned = 0;
};

SlideCounts RunSlide(double duration_s, std::int64_t rows, double touch_hz) {
  auto kernel = MakePaperKernel(rows, touch_hz);
  MakePaperObject(kernel.get());
  TraceBuilder builder(kernel->device());
  kernel->Replay(builder.Slide("fig4a", PointCm{3.0, 1.0},
                               PointCm{3.0, 1.0 + kObjectHeightCm},
                               MotionProfile::Constant(duration_s)));
  return {kernel->stats().entries_returned, kernel->stats().rows_scanned};
}

/// Runs one series point, adds its gated counts to `report` and checks
/// entries per second against [lo, hi]. False = the trend broke.
bool RunPoint(double secs, double hz, double lo, double hi,
              dbtouch::bench::BenchReport* report,
              dbtouch::bench::Table* table) {
  const SlideCounts c = RunSlide(secs, kPaperRows, hz);
  const double per_sec = static_cast<double>(c.entries) / secs;
  const std::string point = dbtouch::bench::Fmt(hz, 0) + "hz_" +
                            dbtouch::bench::Fmt(secs, 1) + "s";
  report->Metric("entries_" + point, c.entries);
  report->Gate("entries_" + point, "higher", 0.0);
  report->Metric("rows_scanned_" + point, c.rows_scanned);
  report->Gate("rows_scanned_" + point, "lower", 0.0);
  table->Row({dbtouch::bench::Fmt(secs, 1), dbtouch::bench::Fmt(c.entries),
              dbtouch::bench::Fmt(c.rows_scanned),
              dbtouch::bench::Fmt(per_sec, 1)});
  if (per_sec < lo || per_sec > hi) {
    std::printf("TREND BROKEN: %.1f entries/sec at %s, outside [%.0f, %.0f]\n",
                per_sec, point.c_str(), lo, hi);
    return false;
  }
  return true;
}

/// Prints both series and writes BENCH_fig4a.json. False = a trend check
/// failed or the report could not be written.
bool PrintReport() {
  dbtouch::bench::Banner(
      "FIG4A", "paper Figure 4(a), Section 3 'Varying Gesture Speed'",
      "Entries returned vs time to complete a slide (interactive\n"
      "summaries, avg, k=10, 10^7 ints, 10cm object). Slower slides see\n"
      "more data; the relation is ~linear in gesture duration.");

  dbtouch::bench::BenchReport report("fig4a");
  bool ok = true;
  std::printf("\nSeries at the calibrated device rate (15 registered "
              "touch-move events/sec; the paper reads ~15 entries/sec):\n\n");
  dbtouch::bench::Table table(
      {"gesture_secs", "entries", "rows_scanned", "entries/sec"});
  for (const double secs : {0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0}) {
    ok = RunPoint(secs, 15.0, 13.0, 16.0, &report, &table) && ok;
  }

  std::printf("\nShape is device-rate independent (same sweep at 60 "
              "events/sec):\n\n");
  dbtouch::bench::Table table60(
      {"gesture_secs", "entries", "rows_scanned", "entries/sec"});
  for (const double secs : {0.5, 1.0, 2.0, 4.0}) {
    ok = RunPoint(secs, 60.0, 56.0, 61.0, &report, &table60) && ok;
  }
  std::printf("\n");
  return report.Write("BENCH_fig4a.json") && ok;
}

// Micro-benchmark: full pipeline cost of one 2-second slide (wall time),
// dominated by per-touch execution.
void BM_Fig4aSlide(benchmark::State& state) {
  const double secs = static_cast<double>(state.range(0)) / 10.0;
  auto kernel = MakePaperKernel(1'000'000);  // Smaller data: fast set-up.
  MakePaperObject(kernel.get());
  TraceBuilder builder(kernel->device());
  const auto trace = builder.Slide("s", PointCm{3.0, 1.0},
                                   PointCm{3.0, 1.0 + kObjectHeightCm},
                                   MotionProfile::Constant(secs));
  for (auto _ : state) {
    kernel->Replay(trace);
  }
  state.counters["entries_per_replay"] = static_cast<double>(
      kernel->stats().entries_returned / state.iterations());
}
BENCHMARK(BM_Fig4aSlide)->Arg(5)->Arg(20)->Arg(40);

}  // namespace

int main(int argc, char** argv) {
  const bool ok = PrintReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return ok ? 0 : 1;
}
