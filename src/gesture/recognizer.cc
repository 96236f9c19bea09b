#include "gesture/recognizer.h"

#include <cmath>

#include "common/macros.h"

namespace dbtouch::gesture {

using sim::DistanceCm;
using sim::TouchEvent;
using sim::TouchPhase;

namespace {

/// Wraps an angle delta into (-pi, pi] so rotation accumulates correctly
/// across the atan2 branch cut.
double WrapToPi(double a) {
  while (a > M_PI) {
    a -= 2.0 * M_PI;
  }
  while (a <= -M_PI) {
    a += 2.0 * M_PI;
  }
  return a;
}

}  // namespace

GestureRecognizer::GestureRecognizer(const RecognizerConfig& config)
    : config_(config) {}

void GestureRecognizer::Reset() {
  state_ = State::kIdle;
  fingers_.clear();
  velocity_x_ = 0.0;
  velocity_y_ = 0.0;
  initial_separation_ = 0.0;
  last_raw_angle_ = 0.0;
  last_scale_ = 1.0;
  last_rotation_ = 0.0;
}

void GestureRecognizer::OnTouch(const TouchEvent& e,
                                std::vector<GestureEvent>* out) {
  switch (e.phase) {
    case TouchPhase::kBegan:
      HandleBegan(e, out);
      break;
    case TouchPhase::kMoved:
      HandleMoved(e, out);
      break;
    case TouchPhase::kEnded:
    case TouchPhase::kCancelled:
      HandleEnded(e, out);
      break;
  }
}

GestureEvent GestureRecognizer::MakeEvent(GestureType type,
                                          GesturePhase phase, Micros ts,
                                          PointCm pos) const {
  GestureEvent ev;
  ev.type = type;
  ev.phase = phase;
  ev.timestamp_us = ts;
  ev.position = pos;
  ev.velocity_x_cm_s = velocity_x_;
  ev.velocity_y_cm_s = velocity_y_;
  ev.pinch_scale = last_scale_;
  ev.rotation_rad = last_rotation_;
  return ev;
}

void GestureRecognizer::HandleBegan(const TouchEvent& e,
                                    std::vector<GestureEvent>* out) {
  fingers_[e.finger_id] = Finger{e.position, e.timestamp_us, e.position,
                                 e.timestamp_us};
  switch (state_) {
    case State::kIdle:
      velocity_x_ = 0.0;
      velocity_y_ = 0.0;
      last_scale_ = 1.0;
      last_rotation_ = 0.0;
      state_ = State::kSingleUndecided;
      break;
    case State::kSliding:
      out->push_back(MakeEvent(GestureType::kSlide, GesturePhase::kEnded,
                               e.timestamp_us, e.position));
      [[fallthrough]];
    case State::kSingleUndecided:
      if (fingers_.size() == 2) {
        initial_separation_ = PairSeparation();
        last_raw_angle_ = PairAngle();
        last_rotation_ = 0.0;
        state_ = State::kTwoUndecided;
      }
      break;
    default:
      // Third finger or touches during drain: ignored.
      break;
  }
}

void GestureRecognizer::UpdateVelocity(const Finger& finger,
                                       const TouchEvent& e) {
  const Micros dt = e.timestamp_us - finger.last_time;
  if (dt <= 0) {
    return;
  }
  const double dt_s = sim::MicrosToSeconds(dt);
  const double vx = (e.position.x - finger.last_pos.x) / dt_s;
  const double vy = (e.position.y - finger.last_pos.y) / dt_s;
  const double a = config_.velocity_smoothing;
  velocity_x_ = a * vx + (1.0 - a) * velocity_x_;
  velocity_y_ = a * vy + (1.0 - a) * velocity_y_;
}

double GestureRecognizer::PairSeparation() const {
  DBTOUCH_CHECK(fingers_.size() >= 2);
  const auto it = fingers_.begin();
  const auto jt = std::next(it);
  return DistanceCm(it->second.last_pos, jt->second.last_pos);
}

double GestureRecognizer::PairAngle() const {
  DBTOUCH_CHECK(fingers_.size() >= 2);
  const auto it = fingers_.begin();
  const auto jt = std::next(it);
  return std::atan2(jt->second.last_pos.y - it->second.last_pos.y,
                    jt->second.last_pos.x - it->second.last_pos.x);
}

PointCm GestureRecognizer::PairCentroid() const {
  DBTOUCH_CHECK(fingers_.size() >= 2);
  const auto it = fingers_.begin();
  const auto jt = std::next(it);
  return PointCm{(it->second.last_pos.x + jt->second.last_pos.x) / 2.0,
                 (it->second.last_pos.y + jt->second.last_pos.y) / 2.0};
}

void GestureRecognizer::HandleMoved(const TouchEvent& e,
                                    std::vector<GestureEvent>* out) {
  const auto fit = fingers_.find(e.finger_id);
  if (fit == fingers_.end()) {
    return;  // Move for an untracked finger (e.g. during drain).
  }
  Finger& finger = fit->second;

  switch (state_) {
    case State::kSingleUndecided: {
      UpdateVelocity(finger, e);
      finger.last_pos = e.position;
      finger.last_time = e.timestamp_us;
      if (DistanceCm(finger.begin_pos, e.position) > config_.slide_slop_cm) {
        state_ = State::kSliding;
        out->push_back(MakeEvent(GestureType::kSlide, GesturePhase::kBegan,
                                 finger.begin_time, finger.begin_pos));
        out->push_back(MakeEvent(GestureType::kSlide, GesturePhase::kChanged,
                                 e.timestamp_us, e.position));
      }
      break;
    }
    case State::kSliding: {
      UpdateVelocity(finger, e);
      finger.last_pos = e.position;
      finger.last_time = e.timestamp_us;
      out->push_back(MakeEvent(GestureType::kSlide, GesturePhase::kChanged,
                               e.timestamp_us, e.position));
      break;
    }
    case State::kTwoUndecided: {
      finger.last_pos = e.position;
      finger.last_time = e.timestamp_us;
      if (fingers_.size() < 2) {
        break;
      }
      const double sep = PairSeparation();
      const double angle = PairAngle();
      last_rotation_ += WrapToPi(angle - last_raw_angle_);
      last_raw_angle_ = angle;
      const double sep_change = std::abs(sep - initial_separation_);
      const double angle_change = std::abs(last_rotation_);
      if (sep_change > config_.pinch_threshold_cm &&
          sep_change >= angle_change * initial_separation_ / 2.0) {
        state_ = State::kPinching;
        last_scale_ = initial_separation_ > 0.0
                          ? sep / initial_separation_
                          : 1.0;
        out->push_back(MakeEvent(GestureType::kPinch, GesturePhase::kBegan,
                                 e.timestamp_us, PairCentroid()));
      } else if (angle_change > config_.rotate_threshold_rad) {
        state_ = State::kRotating;
        out->push_back(MakeEvent(GestureType::kRotate, GesturePhase::kBegan,
                                 e.timestamp_us, PairCentroid()));
      }
      break;
    }
    case State::kPinching: {
      finger.last_pos = e.position;
      finger.last_time = e.timestamp_us;
      if (fingers_.size() >= 2 && initial_separation_ > 0.0) {
        last_scale_ = PairSeparation() / initial_separation_;
      }
      out->push_back(MakeEvent(GestureType::kPinch, GesturePhase::kChanged,
                               e.timestamp_us, PairCentroid()));
      break;
    }
    case State::kRotating: {
      finger.last_pos = e.position;
      finger.last_time = e.timestamp_us;
      if (fingers_.size() >= 2) {
        const double angle = PairAngle();
        last_rotation_ += WrapToPi(angle - last_raw_angle_);
        last_raw_angle_ = angle;
      }
      out->push_back(MakeEvent(GestureType::kRotate, GesturePhase::kChanged,
                               e.timestamp_us, PairCentroid()));
      break;
    }
    case State::kIdle:
    case State::kDraining:
      finger.last_pos = e.position;
      finger.last_time = e.timestamp_us;
      break;
  }
}

void GestureRecognizer::HandleEnded(const TouchEvent& e,
                                    std::vector<GestureEvent>* out) {
  const auto fit = fingers_.find(e.finger_id);
  if (fit == fingers_.end()) {
    return;
  }
  const Finger finger = fit->second;
  fingers_.erase(fit);

  switch (state_) {
    case State::kSingleUndecided: {
      const double held_s =
          sim::MicrosToSeconds(e.timestamp_us - finger.begin_time);
      const bool is_tap =
          e.phase == TouchPhase::kEnded &&
          held_s <= config_.tap_max_duration_s &&
          DistanceCm(finger.begin_pos, e.position) <= config_.tap_slop_cm;
      if (is_tap) {
        out->push_back(MakeEvent(GestureType::kTap, GesturePhase::kEnded,
                                 e.timestamp_us, e.position));
      }
      state_ = State::kIdle;
      break;
    }
    case State::kSliding:
      out->push_back(MakeEvent(GestureType::kSlide, GesturePhase::kEnded,
                               e.timestamp_us, e.position));
      state_ = State::kIdle;
      break;
    case State::kTwoUndecided:
      state_ = fingers_.empty() ? State::kIdle : State::kDraining;
      break;
    case State::kPinching:
      out->push_back(MakeEvent(GestureType::kPinch, GesturePhase::kEnded,
                               e.timestamp_us, e.position));
      state_ = fingers_.empty() ? State::kIdle : State::kDraining;
      break;
    case State::kRotating:
      out->push_back(MakeEvent(GestureType::kRotate, GesturePhase::kEnded,
                               e.timestamp_us, e.position));
      state_ = fingers_.empty() ? State::kIdle : State::kDraining;
      break;
    case State::kDraining:
      if (fingers_.empty()) {
        state_ = State::kIdle;
      }
      break;
    case State::kIdle:
      break;
  }
}

}  // namespace dbtouch::gesture
