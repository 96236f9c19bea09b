// Unit tests for src/sim: virtual clock, touch device, motion profiles,
// trace builder and trace serde.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <set>

#include "sim/motion_profile.h"
#include "sim/touch_device.h"
#include "sim/touch_event.h"
#include "sim/trace_builder.h"
#include "sim/trace_io.h"
#include "sim/virtual_clock.h"

namespace dbtouch::sim {
namespace {

TEST(VirtualClockTest, StartsAtZeroAndAdvances) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0);
  clock.Advance(100);
  EXPECT_EQ(clock.now(), 100);
  clock.AdvanceTo(500);
  EXPECT_EQ(clock.now(), 500);
}

TEST(VirtualClockTest, NeverGoesBackwards) {
  VirtualClock clock;
  clock.AdvanceTo(1000);
  clock.AdvanceTo(500);  // Ignored.
  EXPECT_EQ(clock.now(), 1000);
  clock.Advance(-50);  // Ignored.
  EXPECT_EQ(clock.now(), 1000);
}

TEST(VirtualClockTest, UnitConversions) {
  EXPECT_EQ(SecondsToMicros(1.5), 1'500'000);
  EXPECT_DOUBLE_EQ(MicrosToSeconds(250'000), 0.25);
  EXPECT_DOUBLE_EQ(MicrosToMillis(2'500), 2.5);
}

TEST(TouchDeviceTest, DefaultsModelIpad1) {
  TouchDevice device;
  EXPECT_NEAR(device.config().screen_width_cm, 19.7, 1e-9);
  EXPECT_NEAR(device.config().touch_event_hz, 15.0, 1e-9);
  // 15 Hz -> ~66.6ms between registered moves.
  EXPECT_EQ(device.event_interval_us(), 66'666);
}

TEST(TouchDeviceTest, QuantizeClampsToScreen) {
  TouchDevice device;
  const PointCm p = device.Quantize(PointCm{-5.0, 100.0});
  EXPECT_EQ(p.x, 0.0);
  EXPECT_NEAR(p.y, device.config().screen_height_cm, 1.0 / 52.0);
}

TEST(TouchDeviceTest, QuantizeSnapsToGrid) {
  TouchDevice device;
  const PointCm p = device.Quantize(PointCm{1.0001, 2.0002});
  const double ppc = device.config().points_per_cm;
  EXPECT_NEAR(p.x * ppc, std::round(p.x * ppc), 1e-9);
  EXPECT_NEAR(p.y * ppc, std::round(p.y * ppc), 1e-9);
}

TEST(TouchDeviceTest, DistinctPositionsScaleWithLength) {
  TouchDevice device;
  EXPECT_EQ(device.DistinctPositions(0.0), 0);
  const std::int64_t at10 = device.DistinctPositions(10.0);
  const std::int64_t at20 = device.DistinctPositions(20.0);
  EXPECT_EQ(at10, 521);  // 10cm * 52 points/cm + 1
  EXPECT_GT(at20, 2 * at10 - 2);
}

TEST(TouchDeviceTest, DistinctPositionsSaturateInsteadOfOverflowing) {
  TouchDevice device;
  const std::int64_t huge = device.DistinctPositions(1e300);
  EXPECT_GT(huge, device.DistinctPositions(1e9));
  EXPECT_EQ(device.DistinctPositions(
                std::numeric_limits<double>::infinity()),
            huge);
  EXPECT_EQ(device.DistinctPositions(std::nan("")), 0);
  EXPECT_EQ(device.DistinctPositions(-1e300), 0);
}

TEST(MotionProfileTest, ConstantProfileIsLinear) {
  const MotionProfile p = MotionProfile::Constant(2.0);
  EXPECT_DOUBLE_EQ(p.total_duration_s(), 2.0);
  EXPECT_DOUBLE_EQ(p.FractionAt(0.0), 0.0);
  EXPECT_DOUBLE_EQ(p.FractionAt(1.0), 0.5);
  EXPECT_DOUBLE_EQ(p.FractionAt(2.0), 1.0);
  EXPECT_DOUBLE_EQ(p.SpeedAt(1.0), 0.5);
}

TEST(MotionProfileTest, PauseHoldsPosition) {
  MotionProfile p;
  p.ThenMoveTo(0.5, 1.0).ThenPause(2.0).ThenMoveTo(1.0, 1.0);
  EXPECT_DOUBLE_EQ(p.total_duration_s(), 4.0);
  EXPECT_DOUBLE_EQ(p.FractionAt(1.5), 0.5);
  EXPECT_DOUBLE_EQ(p.FractionAt(2.9), 0.5);
  EXPECT_DOUBLE_EQ(p.SpeedAt(2.0), 0.0);
  EXPECT_DOUBLE_EQ(p.FractionAt(4.0), 1.0);
}

TEST(MotionProfileTest, ReversalDecreasesFraction) {
  MotionProfile p;
  p.ThenMoveTo(0.8, 1.0).ThenMoveTo(0.2, 1.0);
  EXPECT_DOUBLE_EQ(p.FractionAt(1.0), 0.8);
  EXPECT_DOUBLE_EQ(p.FractionAt(2.0), 0.2);
  EXPECT_LT(p.SpeedAt(1.5), 0.0);
}

TEST(MotionProfileTest, ClampsOutsideDuration) {
  const MotionProfile p = MotionProfile::Constant(1.0);
  EXPECT_DOUBLE_EQ(p.FractionAt(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(p.FractionAt(9.0), 1.0);
}

TEST(TraceBuilderTest, SlideEventCountMatchesRateAndDuration) {
  TouchDevice device;
  TraceBuilder builder(device);
  const GestureTrace trace =
      builder.Slide("s", PointCm{2.0, 1.0}, PointCm{2.0, 11.0},
                    MotionProfile::Constant(4.0));
  // Began + moves + Ended. At 15 Hz over 4s there are 59 in-between steps.
  ASSERT_GE(trace.events.size(), 3u);
  EXPECT_EQ(trace.events.front().phase, TouchPhase::kBegan);
  EXPECT_EQ(trace.events.back().phase, TouchPhase::kEnded);
  const std::size_t moves = trace.events.size() - 2;
  EXPECT_NEAR(static_cast<double>(moves), 59.0, 2.0);
}

TEST(TraceBuilderTest, SlideTimestampsMonotonic) {
  TouchDevice device;
  TraceBuilder builder(device);
  const GestureTrace trace =
      builder.Slide("s", PointCm{0.0, 0.0}, PointCm{0.0, 10.0},
                    MotionProfile::Constant(1.0));
  for (std::size_t i = 1; i < trace.events.size(); ++i) {
    EXPECT_GE(trace.events[i].timestamp_us,
              trace.events[i - 1].timestamp_us);
  }
}

TEST(TraceBuilderTest, PauseProducesNoMoveEvents) {
  TouchDevice device;
  TraceBuilder builder(device);
  MotionProfile with_pause;
  with_pause.ThenMoveTo(0.5, 1.0).ThenPause(5.0).ThenMoveTo(1.0, 1.0);
  const GestureTrace paused = builder.Slide(
      "p", PointCm{1.0, 1.0}, PointCm{1.0, 11.0}, with_pause);
  const GestureTrace unpaused = builder.Slide(
      "u", PointCm{1.0, 1.0}, PointCm{1.0, 11.0}, MotionProfile::Constant(2.0));
  // The pause adds 5 seconds but no events (the finger is stationary), so
  // event counts match the unpaused two-second slide (±1 boundary effect).
  EXPECT_NEAR(static_cast<double>(paused.events.size()),
              static_cast<double>(unpaused.events.size()), 2.0);
}

TEST(TraceBuilderTest, SlowerSlideRegistersMoreEvents) {
  TouchDevice device;
  TraceBuilder builder(device);
  const auto fast = builder.Slide("f", PointCm{1, 0}, PointCm{1, 10},
                                  MotionProfile::Constant(0.5));
  const auto slow = builder.Slide("s", PointCm{1, 0}, PointCm{1, 10},
                                  MotionProfile::Constant(4.0));
  EXPECT_GT(slow.events.size(), 4 * fast.events.size());
}

TEST(TraceBuilderTest, VerySlowSlideBoundedByDistinctPositions) {
  // At extreme slowness, consecutive samples land on the same device point
  // and collapse; the number of moves can't exceed distinct positions.
  TouchDeviceConfig config;
  config.touch_event_hz = 1000.0;
  TouchDevice device(config);
  TraceBuilder builder(device);
  const auto trace = builder.Slide("s", PointCm{1, 0}, PointCm{1, 1},
                                   MotionProfile::Constant(10.0));
  EXPECT_LE(static_cast<std::int64_t>(trace.events.size()),
            device.DistinctPositions(1.0) + 2);
}

TEST(TraceBuilderTest, TapIsBeganEndedPair) {
  TouchDevice device;
  TraceBuilder builder(device);
  const auto trace = builder.Tap("t", PointCm{3.0, 4.0});
  ASSERT_EQ(trace.events.size(), 2u);
  EXPECT_EQ(trace.events[0].phase, TouchPhase::kBegan);
  EXPECT_EQ(trace.events[1].phase, TouchPhase::kEnded);
  EXPECT_EQ(trace.events[0].position, trace.events[1].position);
}

TEST(TraceBuilderTest, PinchUsesTwoFingersAndChangesSeparation) {
  TouchDevice device;
  TraceBuilder builder(device);
  const auto trace = builder.Pinch("z", PointCm{9.0, 7.0}, M_PI / 2.0, 2.0,
                                   6.0, 1.0);
  std::set<int> fingers;
  for (const auto& e : trace.events) {
    fingers.insert(e.finger_id);
  }
  EXPECT_EQ(fingers.size(), 2u);
  // First two events: separation 2; last two: separation 6.
  const double sep_begin =
      DistanceCm(trace.events[0].position, trace.events[1].position);
  const double sep_end =
      DistanceCm(trace.events[trace.events.size() - 2].position,
                 trace.events.back().position);
  EXPECT_NEAR(sep_begin, 2.0, 0.1);
  EXPECT_NEAR(sep_end, 6.0, 0.1);
}

TEST(TraceBuilderTest, RotateSweepsAngle) {
  TouchDevice device;
  TraceBuilder builder(device);
  const auto trace = builder.TwoFingerRotate("r", PointCm{9.0, 7.0}, 3.0, 0.0,
                                             M_PI / 2.0, 1.0);
  ASSERT_GE(trace.events.size(), 4u);
  // Finger 0 starts at angle 0 (east of center) and ends at pi/2 (south).
  const PointCm first = trace.events[0].position;
  EXPECT_NEAR(first.x, 12.0, 0.1);
  EXPECT_NEAR(first.y, 7.0, 0.1);
  PointCm last{};
  for (auto it = trace.events.rbegin(); it != trace.events.rend(); ++it) {
    if (it->finger_id == 0) {
      last = it->position;
      break;
    }
  }
  EXPECT_NEAR(last.x, 9.0, 0.1);
  EXPECT_NEAR(last.y, 10.0, 0.1);
}

TEST(TraceAppendTest, ShiftsTimestamps) {
  TouchDevice device;
  TraceBuilder builder(device);
  GestureTrace a = builder.Tap("a", PointCm{1, 1});
  const GestureTrace b = builder.Tap("b", PointCm{2, 2});
  const Micros end_a = a.duration_us();
  a.Append(b, 500'000);
  EXPECT_EQ(a.events[2].timestamp_us, end_a + 500'000);
}

TEST(TraceIoTest, RoundTripsThroughText) {
  TouchDevice device;
  TraceBuilder builder(device);
  const GestureTrace original =
      builder.Slide("roundtrip", PointCm{1, 0}, PointCm{1, 10},
                    MotionProfile::Constant(1.0));
  const std::string text = SerializeTrace(original);
  const auto parsed = ParseTrace(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->name, original.name);
  ASSERT_EQ(parsed->events.size(), original.events.size());
  for (std::size_t i = 0; i < original.events.size(); ++i) {
    EXPECT_EQ(parsed->events[i].timestamp_us,
              original.events[i].timestamp_us);
    EXPECT_EQ(parsed->events[i].phase, original.events[i].phase);
    EXPECT_NEAR(parsed->events[i].position.x, original.events[i].position.x,
                1e-6);
  }
}

TEST(TraceIoTest, RejectsBadHeader) {
  EXPECT_TRUE(ParseTrace("bogus\n").status().IsInvalidArgument());
  EXPECT_TRUE(ParseTrace("").status().IsInvalidArgument());
}

TEST(TraceIoTest, RejectsMalformedEvent) {
  const std::string text = "# dbtouch-trace v1\nname x\ne 1 2\n";
  EXPECT_TRUE(ParseTrace(text).status().IsInvalidArgument());
}

TEST(TraceIoTest, RejectsNonMonotonicTimestamps) {
  const std::string text =
      "# dbtouch-trace v1\nname x\ne 100 0 0 1 1\ne 50 0 1 1 2\n";
  EXPECT_TRUE(ParseTrace(text).status().IsInvalidArgument());
}

TEST(TraceIoTest, RejectsBadPhase) {
  const std::string text = "# dbtouch-trace v1\ne 1 0 9 1 1\n";
  EXPECT_TRUE(ParseTrace(text).status().IsInvalidArgument());
}

TEST(TraceIoTest, FileRoundTrip) {
  TouchDevice device;
  TraceBuilder builder(device);
  const GestureTrace original = builder.Tap("file", PointCm{5, 5});
  const std::string path = testing::TempDir() + "/dbtouch_trace_test.txt";
  ASSERT_TRUE(SaveTrace(original, path).ok());
  const auto loaded = LoadTrace(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->events.size(), original.events.size());
  std::remove(path.c_str());
}

TEST(TraceIoTest, LoadMissingFileIsNotFound) {
  EXPECT_TRUE(LoadTrace("/nonexistent/path.trace").status().IsNotFound());
}

}  // namespace
}  // namespace dbtouch::sim
