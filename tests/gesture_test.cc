// Unit tests for gesture recognition: classification of synthetic traces
// into tap/slide/pinch/rotate and velocity estimation.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "gesture/gesture_event.h"
#include "gesture/recognizer.h"
#include "sim/motion_profile.h"
#include "sim/touch_device.h"
#include "sim/trace_builder.h"

namespace dbtouch::gesture {
namespace {

using sim::GestureTrace;
using sim::MotionProfile;
using sim::PointCm;
using sim::TouchDevice;
using sim::TraceBuilder;

std::vector<GestureEvent> Recognize(const GestureTrace& trace,
                                    GestureRecognizer* recognizer) {
  std::vector<GestureEvent> out;
  for (const auto& e : trace.events) {
    recognizer->OnTouch(e, &out);
  }
  return out;
}

/// The gesture steps one touch completes.
std::vector<GestureEvent> Step(GestureRecognizer* recognizer,
                               const sim::TouchEvent& e) {
  std::vector<GestureEvent> out;
  recognizer->OnTouch(e, &out);
  return out;
}

int CountType(const std::vector<GestureEvent>& events, GestureType type,
              GesturePhase phase) {
  int n = 0;
  for (const auto& e : events) {
    if (e.type == type && e.phase == phase) {
      ++n;
    }
  }
  return n;
}

TEST(GestureTypeTest, Names) {
  EXPECT_STREQ(GestureTypeName(GestureType::kTap), "tap");
  EXPECT_STREQ(GestureTypeName(GestureType::kSlide), "slide");
  EXPECT_STREQ(GestureTypeName(GestureType::kPinch), "pinch");
  EXPECT_STREQ(GestureTypeName(GestureType::kRotate), "rotate");
}

TEST(RecognizerTest, TapIsRecognized) {
  TouchDevice device;
  TraceBuilder builder(device);
  GestureRecognizer rec;
  const auto events = Recognize(builder.Tap("t", PointCm{3, 4}), &rec);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, GestureType::kTap);
  EXPECT_EQ(events[0].phase, GesturePhase::kEnded);
  EXPECT_NEAR(events[0].position.x, 3.0, 0.05);
}

TEST(RecognizerTest, LongHoldIsNotATap) {
  TouchDevice device;
  TraceBuilder builder(device);
  GestureRecognizer rec;
  const auto events =
      Recognize(builder.Tap("hold", PointCm{3, 4}, /*hold_s=*/1.0), &rec);
  EXPECT_TRUE(events.empty());
}

TEST(RecognizerTest, SlideEmitsBeganChangedEnded) {
  TouchDevice device;
  TraceBuilder builder(device);
  GestureRecognizer rec;
  const auto trace = builder.Slide("s", PointCm{2, 1}, PointCm{2, 11},
                                   MotionProfile::Constant(2.0));
  const auto events = Recognize(trace, &rec);
  EXPECT_EQ(CountType(events, GestureType::kSlide, GesturePhase::kBegan), 1);
  EXPECT_EQ(CountType(events, GestureType::kSlide, GesturePhase::kEnded), 1);
  const int changed =
      CountType(events, GestureType::kSlide, GesturePhase::kChanged);
  // ~30 moves at 15Hz over 2s; nearly all register as changes.
  EXPECT_GT(changed, 24);
  // No other gesture types leak out.
  EXPECT_EQ(CountType(events, GestureType::kTap, GesturePhase::kEnded), 0);
}

TEST(RecognizerTest, OnTouchAppendsBehindWhatTheQueueHolds) {
  // The kernel's pending FIFO may still hold steps parked behind a cold
  // fetch; a new touch's steps go in behind them.
  TouchDevice device;
  TraceBuilder builder(device);
  GestureRecognizer rec;
  const auto trace = builder.Slide("s", PointCm{2, 1}, PointCm{2, 11},
                                   MotionProfile::Constant(2.0));
  std::vector<GestureEvent> queue(3);
  for (const auto& e : trace.events) {
    rec.OnTouch(e, &queue);
  }
  GestureRecognizer fresh;
  const auto alone = Recognize(trace, &fresh);
  ASSERT_EQ(queue.size(), alone.size() + 3);
  for (std::size_t i = 0; i < alone.size(); ++i) {
    EXPECT_EQ(queue[i + 3].phase, alone[i].phase);
    EXPECT_EQ(queue[i + 3].timestamp_us, alone[i].timestamp_us);
  }
}

TEST(RecognizerTest, SlideVelocityApproximatesTrueSpeed) {
  TouchDevice device;
  TraceBuilder builder(device);
  GestureRecognizer rec;
  // 10cm down in 2s -> 5 cm/s along +y.
  const auto trace = builder.Slide("s", PointCm{2, 1}, PointCm{2, 11},
                                   MotionProfile::Constant(2.0));
  double last_vy = 0.0;
  for (const auto& e : trace.events) {
    for (const auto& g : Step(&rec, e)) {
      if (g.type == GestureType::kSlide &&
          g.phase == GesturePhase::kChanged) {
        last_vy = g.velocity_y_cm_s;
      }
    }
  }
  EXPECT_NEAR(last_vy, 5.0, 1.0);
}

TEST(RecognizerTest, SlideChangesAreMonotonicInTime) {
  TouchDevice device;
  TraceBuilder builder(device);
  GestureRecognizer rec;
  const auto trace = builder.Slide("s", PointCm{2, 1}, PointCm{2, 11},
                                   MotionProfile::Constant(1.0));
  sim::Micros last = -1;
  for (const auto& e : Recognize(trace, &rec)) {
    EXPECT_GE(e.timestamp_us, last);
    last = e.timestamp_us;
  }
}

TEST(RecognizerTest, PauseResumeStaysOneSlide) {
  TouchDevice device;
  TraceBuilder builder(device);
  GestureRecognizer rec;
  MotionProfile profile;
  profile.ThenMoveTo(0.5, 1.0).ThenPause(1.0).ThenMoveTo(1.0, 1.0);
  const auto trace =
      builder.Slide("p", PointCm{2, 1}, PointCm{2, 11}, profile);
  const auto events = Recognize(trace, &rec);
  EXPECT_EQ(CountType(events, GestureType::kSlide, GesturePhase::kBegan), 1);
  EXPECT_EQ(CountType(events, GestureType::kSlide, GesturePhase::kEnded), 1);
}

TEST(RecognizerTest, ZoomInPinchScaleGrows) {
  TouchDevice device;
  TraceBuilder builder(device);
  GestureRecognizer rec;
  const auto trace =
      builder.Pinch("z", PointCm{9, 7}, M_PI / 2.0, 2.0, 6.0, 1.0);
  const auto events = Recognize(trace, &rec);
  ASSERT_GT(CountType(events, GestureType::kPinch, GesturePhase::kBegan), 0);
  ASSERT_GT(CountType(events, GestureType::kPinch, GesturePhase::kEnded), 0);
  double final_scale = 1.0;
  for (const auto& e : events) {
    if (e.type == GestureType::kPinch) {
      final_scale = e.pinch_scale;
    }
  }
  EXPECT_NEAR(final_scale, 3.0, 0.25);  // 6cm / 2cm.
}

TEST(RecognizerTest, ZoomOutPinchScaleShrinks) {
  TouchDevice device;
  TraceBuilder builder(device);
  GestureRecognizer rec;
  const auto trace =
      builder.Pinch("z", PointCm{9, 7}, M_PI / 2.0, 6.0, 2.0, 1.0);
  const auto events = Recognize(trace, &rec);
  double final_scale = 1.0;
  for (const auto& e : events) {
    if (e.type == GestureType::kPinch) {
      final_scale = e.pinch_scale;
    }
  }
  EXPECT_NEAR(final_scale, 1.0 / 3.0, 0.1);
  EXPECT_EQ(CountType(events, GestureType::kRotate, GesturePhase::kBegan), 0);
}

TEST(RecognizerTest, RotateAccumulatesAngle) {
  TouchDevice device;
  TraceBuilder builder(device);
  GestureRecognizer rec;
  const auto trace = builder.TwoFingerRotate("r", PointCm{9, 7}, 3.0, 0.0,
                                             M_PI / 2.0, 1.0);
  const auto events = Recognize(trace, &rec);
  ASSERT_GT(CountType(events, GestureType::kRotate, GesturePhase::kBegan),
            0);
  double final_rotation = 0.0;
  for (const auto& e : events) {
    if (e.type == GestureType::kRotate) {
      final_rotation = e.rotation_rad;
    }
  }
  EXPECT_NEAR(std::abs(final_rotation), M_PI / 2.0, 0.2);
  EXPECT_EQ(CountType(events, GestureType::kPinch, GesturePhase::kBegan), 0);
}

TEST(RecognizerTest, SecondFingerEndsSlide) {
  TouchDevice device;
  TraceBuilder builder(device);
  GestureRecognizer rec;
  // Start a slide...
  auto slide = builder.Slide("s", PointCm{2, 1}, PointCm{2, 6},
                             MotionProfile::Constant(1.0));
  slide.events.pop_back();  // Keep finger 0 down.
  auto events = Recognize(slide, &rec);
  EXPECT_EQ(CountType(events, GestureType::kSlide, GesturePhase::kBegan), 1);
  EXPECT_EQ(CountType(events, GestureType::kSlide, GesturePhase::kEnded), 0);
  // ...then land a second finger.
  const sim::TouchEvent second{slide.duration_us() + 1000, 1,
                               sim::TouchPhase::kBegan, PointCm{6, 6}};
  events = Step(&rec, second);
  EXPECT_EQ(CountType(events, GestureType::kSlide, GesturePhase::kEnded), 1);
}

TEST(RecognizerTest, ResetAbandonsGesture) {
  TouchDevice device;
  TraceBuilder builder(device);
  GestureRecognizer rec;
  auto slide = builder.Slide("s", PointCm{2, 1}, PointCm{2, 6},
                             MotionProfile::Constant(1.0));
  const sim::TouchEvent last_event = slide.events.back();
  slide.events.pop_back();
  Recognize(slide, &rec);
  rec.Reset();
  // The dangling end event is for an untracked finger: no output.
  EXPECT_TRUE(Step(&rec, last_event).empty());
}

TEST(RecognizerTest, ConsecutiveGesturesBothRecognized) {
  TouchDevice device;
  TraceBuilder builder(device);
  GestureRecognizer rec;
  GestureTrace session = builder.Slide("s1", PointCm{2, 1}, PointCm{2, 11},
                                       MotionProfile::Constant(1.0));
  session.Append(builder.Tap("t", PointCm{5, 5}), 300'000);
  const auto events = Recognize(session, &rec);
  EXPECT_EQ(CountType(events, GestureType::kSlide, GesturePhase::kEnded), 1);
  EXPECT_EQ(CountType(events, GestureType::kTap, GesturePhase::kEnded), 1);
}

TEST(RecognizerTest, CancelledTouchIsNotATap) {
  GestureRecognizer rec;
  EXPECT_TRUE(
      Step(&rec, {0, 0, sim::TouchPhase::kBegan, PointCm{1, 1}}).empty());
  EXPECT_TRUE(
      Step(&rec, {10'000, 0, sim::TouchPhase::kCancelled, PointCm{1, 1}})
          .empty());
}

TEST(RecognizerTest, CancelledSlideStillEmitsEnded) {
  // A cancelled contact mid-slide must close the gesture so the kernel's
  // per-gesture state (target lock, session accounting) is released.
  TouchDevice device;
  TraceBuilder builder(device);
  GestureRecognizer rec;
  auto slide = builder.Slide("s", PointCm{2, 1}, PointCm{2, 8},
                             MotionProfile::Constant(1.0));
  slide.events.back().phase = sim::TouchPhase::kCancelled;
  const auto events = Recognize(slide, &rec);
  EXPECT_EQ(CountType(events, GestureType::kSlide, GesturePhase::kEnded), 1);
}

TEST(RecognizerTest, ThirdFingerIsIgnored) {
  TouchDevice device;
  TraceBuilder builder(device);
  GestureRecognizer rec;
  auto pinch = builder.Pinch("z", PointCm{9, 7}, M_PI / 2.0, 2.0, 6.0, 1.0);
  // Land a third finger mid-pinch; classification must be unaffected.
  sim::GestureTrace with_third;
  with_third.name = "three";
  for (std::size_t i = 0; i < pinch.events.size(); ++i) {
    with_third.events.push_back(pinch.events[i]);
    if (i == pinch.events.size() / 2) {
      with_third.events.push_back(sim::TouchEvent{
          pinch.events[i].timestamp_us + 1, 2, sim::TouchPhase::kBegan,
          PointCm{15.0, 10.0}});
    }
  }
  const auto events = Recognize(with_third, &rec);
  EXPECT_GT(CountType(events, GestureType::kPinch, GesturePhase::kChanged),
            0);
  EXPECT_EQ(CountType(events, GestureType::kSlide, GesturePhase::kBegan), 0);
  EXPECT_EQ(CountType(events, GestureType::kTap, GesturePhase::kEnded), 0);
}

TEST(RecognizerTest, DrainAfterTwoFingerGestureSwallowsStragglers) {
  TouchDevice device;
  TraceBuilder builder(device);
  GestureRecognizer rec;
  auto pinch = builder.Pinch("z", PointCm{9, 7}, M_PI / 2.0, 2.0, 6.0, 1.0);
  // Remove the final Ended of finger 1: finger 0 ends (gesture kEnded),
  // then finger 1 keeps moving — those moves must produce nothing.
  const auto last = pinch.events.back();
  pinch.events.pop_back();
  auto events = Recognize(pinch, &rec);
  EXPECT_EQ(CountType(events, GestureType::kPinch, GesturePhase::kEnded), 1);
  events = Step(&rec, sim::TouchEvent{last.timestamp_us + 10'000, 1,
                                      sim::TouchPhase::kMoved,
                                      PointCm{10.0, 10.0}});
  EXPECT_TRUE(events.empty());
  // Once the straggler lifts, a fresh tap recognises normally.
  EXPECT_TRUE(Step(&rec, sim::TouchEvent{last.timestamp_us + 20'000, 1,
                                         sim::TouchPhase::kEnded,
                                         PointCm{10.0, 10.0}})
                  .empty());
  const auto tap = Recognize(builder.Tap("t", PointCm{4, 4}, 0.05,
                                         last.timestamp_us + 100'000),
                             &rec);
  EXPECT_EQ(CountType(tap, GestureType::kTap, GesturePhase::kEnded), 1);
}

TEST(RecognizerTest, DiagonalSlideVelocityHasBothComponents) {
  TouchDevice device;
  TraceBuilder builder(device);
  GestureRecognizer rec;
  // 6cm right and 8cm down in 2s: vx ~3, vy ~4 cm/s.
  const auto trace = builder.Slide("d", PointCm{2, 1}, PointCm{8, 9},
                                   MotionProfile::Constant(2.0));
  Recognize(trace, &rec);
  EXPECT_NEAR(rec.velocity_x(), 3.0, 0.8);
  EXPECT_NEAR(rec.velocity_y(), 4.0, 0.8);
}

}  // namespace
}  // namespace dbtouch::gesture
