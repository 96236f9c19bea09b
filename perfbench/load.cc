#include "load.h"

#include <algorithm>
#include <utility>

#include "sim/motion_profile.h"
#include "sim/trace_builder.h"

namespace perfbench {

using dbtouch::sim::TouchEvent;

SessionScript::SessionScript(std::uint64_t seed, int session_index,
                             ScriptShape shape,
                             const dbtouch::sim::TouchDeviceConfig& device,
                             Micros start_us)
    : rng_(seed * 0x9e3779b97f4a7c15ull +
           static_cast<std::uint64_t>(session_index) * 0xbf58476d1ce4e5b9ull +
           1),
      shape_(shape),
      device_(device),
      next_start_us_(start_us) {
  const double height = kObjectFrame.height;
  const double span = shape_.region_frac * height;
  region_lo_cm_ = kObjectFrame.y + rng_.NextDouble(0.0, height - span);
  region_hi_cm_ = region_lo_cm_ + span;
  upward_ = rng_.NextBernoulli(0.5);
}

void SessionScript::AppendSlide() {
  const double span = region_hi_cm_ - region_lo_cm_;
  const double length =
      span * rng_.NextDouble(shape_.length_min_frac, shape_.length_max_frac);
  const double speed =
      rng_.NextDouble(shape_.speed_min_cm_s, shape_.speed_max_cm_s);
  const double start = region_lo_cm_ + rng_.NextDouble(0.0, span - length);
  const double x = kObjectFrame.x + rng_.NextDouble(0.2, 0.8) *
                                        kObjectFrame.width;
  double y0 = start;
  double y1 = start + length;
  // Direction alternates, like a user scrubbing up and down.
  if (upward_) std::swap(y0, y1);
  upward_ = !upward_;
  dbtouch::sim::TraceBuilder builder(device_);
  dbtouch::sim::GestureTrace trace = builder.Slide(
      "slide", dbtouch::sim::PointCm{x, y0}, dbtouch::sim::PointCm{x, y1},
      dbtouch::sim::MotionProfile::Constant(length / speed), next_start_us_);
  for (const TouchEvent& e : trace.events) pending_.push_back(e);
  next_start_us_ =
      trace.duration_us() +
      static_cast<Micros>(
          rng_.NextDouble(shape_.think_min_s, shape_.think_max_s) * 1e6);
}

TouchEvent SessionScript::Next() {
  while (pending_.empty()) AppendSlide();
  TouchEvent e = pending_.front();
  pending_.pop_front();
  return e;
}

Micros SessionScript::PeekTime() {
  while (pending_.empty()) AppendSlide();
  return pending_.front().timestamp_us;
}

std::vector<PacedFrame> CutPacedFrames(SessionScript& script,
                                       Micros interval_us, Micros phase_us,
                                       Micros horizon_us) {
  std::vector<PacedFrame> frames;
  while (true) {
    const Micros t = script.PeekTime();
    // Interval k covers [phase + k*I, phase + (k+1)*I) and leaves at its
    // end, like a client flushing once per display frame.
    const Micros k = (t - phase_us) / interval_us;
    const Micros slot_end = phase_us + (k + 1) * interval_us;
    if (slot_end >= horizon_us) break;
    PacedFrame frame;
    frame.send_us = slot_end;
    frame.req.paced = true;
    while (script.PeekTime() < slot_end) {
      frame.req.events.push_back(api::ToWire(script.Next()));
    }
    frames.push_back(std::move(frame));
  }
  return frames;
}

api::SubmitBatchReq NextBurstFrame(SessionScript& script, int n) {
  api::SubmitBatchReq req;
  req.paced = false;
  req.events.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) req.events.push_back(api::ToWire(script.Next()));
  return req;
}

api::WireAction ToWireAction(const dbtouch::core::ActionConfig& action) {
  api::WireAction w;
  w.kind = static_cast<std::uint8_t>(action.kind);
  w.agg = static_cast<std::uint8_t>(action.agg);
  w.summary_k = action.summary_k;
  return w;
}

}  // namespace perfbench
