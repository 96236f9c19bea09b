// Streaming gesture recognition: a state machine fed one TouchEvent at a
// time, emitting GestureEvents as classifications become unambiguous. It
// appends them to a queue the caller owns (the kernel's pending FIFO), so
// recognising a steady slide step allocates nothing once that queue has
// grown to its working size.
//
// Single finger: tap (short, within slop) vs slide (moves beyond slop).
// Two fingers: pinch (separation change dominates) vs rotate (angle change
// dominates). A second finger landing mid-slide ends the slide and opens a
// two-finger classification window.

#ifndef DBTOUCH_GESTURE_RECOGNIZER_H_
#define DBTOUCH_GESTURE_RECOGNIZER_H_

#include <map>
#include <vector>

#include "gesture/gesture_event.h"
#include "sim/touch_event.h"

namespace dbtouch::gesture {

struct RecognizerConfig {
  /// A contact that ends within this duration and moves less than
  /// `tap_slop_cm` is a tap.
  double tap_max_duration_s = 0.3;
  double tap_slop_cm = 0.4;
  /// Movement beyond this distance commits a single finger to a slide.
  double slide_slop_cm = 0.2;
  /// Two-finger separation change (cm) that commits to a pinch.
  double pinch_threshold_cm = 0.5;
  /// Two-finger angle change (radians) that commits to a rotate.
  double rotate_threshold_rad = 0.25;
  /// EWMA weight of the newest velocity sample (0..1].
  double velocity_smoothing = 0.4;
};

class GestureRecognizer {
 public:
  explicit GestureRecognizer(const RecognizerConfig& config = {});

  /// Feeds one touch event and appends the zero or more gesture steps it
  /// completes to `out`, in order.
  void OnTouch(const sim::TouchEvent& event, std::vector<GestureEvent>* out);

  /// Abandons any in-flight gesture (no kEnded is emitted).
  void Reset();

  /// Smoothed slide velocity of the current gesture (cm/s).
  double velocity_x() const { return velocity_x_; }
  double velocity_y() const { return velocity_y_; }

 private:
  enum class State {
    kIdle,
    kSingleUndecided,  // One finger down, tap still possible.
    kSliding,
    kTwoUndecided,  // Two fingers down, pinch/rotate undecided.
    kPinching,
    kRotating,
    kDraining,  // Gesture ended; swallowing leftover finger events.
  };

  struct Finger {
    PointCm begin_pos;
    Micros begin_time = 0;
    PointCm last_pos;
    Micros last_time = 0;
  };

  void HandleBegan(const sim::TouchEvent& e, std::vector<GestureEvent>* out);
  void HandleMoved(const sim::TouchEvent& e, std::vector<GestureEvent>* out);
  void HandleEnded(const sim::TouchEvent& e, std::vector<GestureEvent>* out);

  void UpdateVelocity(const Finger& finger, const sim::TouchEvent& e);
  /// Separation and angle of the two-finger pair.
  double PairSeparation() const;
  double PairAngle() const;
  PointCm PairCentroid() const;

  GestureEvent MakeEvent(GestureType type, GesturePhase phase, Micros ts,
                         PointCm pos) const;

  RecognizerConfig config_;
  State state_ = State::kIdle;
  std::map<std::int32_t, Finger> fingers_;
  double velocity_x_ = 0.0;
  double velocity_y_ = 0.0;
  double initial_separation_ = 0.0;
  /// Raw pair angle at the previous event; rotation accumulates wrapped
  /// per-event deltas so it tracks through the atan2 branch cut.
  double last_raw_angle_ = 0.0;
  double last_scale_ = 1.0;
  double last_rotation_ = 0.0;
};

}  // namespace dbtouch::gesture

#endif  // DBTOUCH_GESTURE_RECOGNIZER_H_
