// ABL-TOUCHMAP — paper Sections 2.4/2.5: the per-touch fixed costs. The
// whole dbTouch premise needs touch->tuple mapping, hit testing and
// gesture recognition to be vanishing fractions of the per-touch budget;
// this bench pins their costs.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "gesture/recognizer.h"
#include "sim/motion_profile.h"
#include "sim/trace_builder.h"
#include "touch/data_object_view.h"
#include "touch/touch_mapper.h"
#include "touch/view.h"

namespace {

using dbtouch::gesture::GestureEvent;
using dbtouch::gesture::GestureRecognizer;
using dbtouch::sim::MotionProfile;
using dbtouch::sim::PointCm;
using dbtouch::sim::TouchDevice;
using dbtouch::sim::TraceBuilder;
using dbtouch::touch::DataObjectView;
using dbtouch::touch::MapPositionToRow;
using dbtouch::touch::MapTouch;
using dbtouch::touch::ObjectKind;
using dbtouch::touch::RectCm;
using dbtouch::touch::TuplesPerPosition;
using dbtouch::touch::View;

void PrintReport() {
  dbtouch::bench::Banner(
      "ABL-TOUCHMAP", "paper Sections 2.4-2.5, touch-to-tuple mapping",
      "Fixed per-touch costs (Rule of Three mapping, hit testing,\n"
      "recognition) and the touch granularity table for the paper's\n"
      "object sizes.");

  const TouchDevice device;
  std::printf("\nTouch granularity (tuples per touchable position), 10^7 "
              "rows:\n\n");
  dbtouch::bench::Table table({"object_cm", "positions",
                               "tuples_per_touch"});
  for (const double cm : {1.5, 3.0, 6.0, 10.0, 12.0, 24.0}) {
    const std::int64_t positions = device.DistinctPositions(cm);
    table.Row({dbtouch::bench::Fmt(cm, 1),
               dbtouch::bench::Fmt(positions),
               dbtouch::bench::Fmt(
                   TuplesPerPosition(10'000'000, cm,
                                     device.config().points_per_cm),
                   0)});
  }
  std::printf("\nZooming from 1.5cm to 24cm raises addressable positions "
              "16x — the physical\nconstraint that motivates sample-level "
              "storage (Section 2.5).\n\n");
}

void BM_RuleOfThree(benchmark::State& state) {
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MapPositionToRow(t, 10.0, 10'000'000));
    t += 0.0123;
    if (t > 10.0) {
      t = 0.0;
    }
  }
}
BENCHMARK(BM_RuleOfThree);

void BM_MapTouchOnTable(benchmark::State& state) {
  DataObjectView object("t", RectCm{0, 0, 8, 10}, ObjectKind::kTable,
                        10'000'000, 8);
  PointCm p{0.1, 0.1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(MapTouch(object, p));
    p.x += 0.37;
    p.y += 0.59;
    if (p.x > 8.0) p.x -= 8.0;
    if (p.y > 10.0) p.y -= 10.0;
  }
}
BENCHMARK(BM_MapTouchOnTable);

void BM_HitTestDepth(benchmark::State& state) {
  // A screen with `n` sibling objects: hit test cost is linear in
  // overlapping siblings, constant in data size.
  View root("screen", RectCm{0, 0, 100, 100});
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    root.AddChild(std::make_unique<View>(
        "v" + std::to_string(i),
        RectCm{static_cast<double>(i % 10) * 10.0,
               static_cast<double>(i / 10) * 10.0, 9.0, 9.0}));
  }
  PointCm p{55.0, 55.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(root.HitTest(p));
  }
  state.counters["siblings"] = n;
}
BENCHMARK(BM_HitTestDepth)->Arg(4)->Arg(16)->Arg(64);

void BM_RecognizerSlideThroughput(benchmark::State& state) {
  const TouchDevice device;
  TraceBuilder builder(device);
  const auto trace = builder.Slide("s", PointCm{2, 1}, PointCm{2, 11},
                                   MotionProfile::Constant(4.0));
  GestureRecognizer recognizer;
  // The queue the kernel keeps: appended to, drained, capacity kept.
  std::vector<GestureEvent> steps;
  std::size_t i = 0;
  for (auto _ : state) {
    recognizer.OnTouch(trace.events[i], &steps);
    benchmark::DoNotOptimize(steps.data());
    steps.clear();
    i = (i + 1) % trace.events.size();
    if (i == 0) {
      recognizer.Reset();
    }
  }
}
BENCHMARK(BM_RecognizerSlideThroughput);

}  // namespace

int main(int argc, char** argv) {
  PrintReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
