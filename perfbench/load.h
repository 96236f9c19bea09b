// Seeded load for the touch benchmark.
//
// Every session replays an endless, deterministic exploration script: a
// sequence of vertical slides over a seeded region of its data object,
// separated by think-time gaps and sampled at the device's touch rate
// (ICEBOAT-style interaction logs, synthesised from the paper's gesture
// vocabulary). The script is a pure function of (seed, session index), so
// the benchmark can cut it into wire frames for the server and replay the
// very same touches through a standalone kernel to check the answers.

#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/rng.h"
#include "core/action.h"
#include "server/api.h"
#include "sim/touch_device.h"
#include "sim/touch_event.h"

namespace perfbench {

namespace api = dbtouch::server::api;
using dbtouch::sim::Micros;

/// Where each session's object sits on screen; the whole table maps onto
/// its height.
inline constexpr api::WireRect kObjectFrame{1.0, 1.0, 6.0, 12.0};

/// Shape of one workload's exploration scripts.
struct ScriptShape {
  /// Slide speed range (cm/s). Fast enough that every registered touch
  /// moves past the finger's slop, so each sample is a distinct touch.
  double speed_min_cm_s = 7.0;
  double speed_max_cm_s = 14.0;
  /// Slide length range as a share of the session's region.
  double length_min_frac = 0.5;
  double length_max_frac = 1.0;
  /// Think time between slides.
  double think_min_s = 0.05;
  double think_max_s = 0.3;
  /// Share of the object's height each session's region covers.
  double region_frac = 1.0;
};

/// One session's endless script. Timestamps are session-relative micros,
/// strictly increasing, starting at `start_us`.
class SessionScript {
 public:
  SessionScript(std::uint64_t seed, int session_index, ScriptShape shape,
                const dbtouch::sim::TouchDeviceConfig& device,
                Micros start_us);

  dbtouch::sim::TouchEvent Next();
  /// Timestamp of the event Next() would return.
  Micros PeekTime();

 private:
  void AppendSlide();

  dbtouch::Rng rng_;
  ScriptShape shape_;
  dbtouch::sim::TouchDevice device_;
  std::deque<dbtouch::sim::TouchEvent> pending_;
  Micros next_start_us_;
  double region_lo_cm_ = 0.0;
  double region_hi_cm_ = 0.0;
  bool upward_ = false;
};

/// One SubmitBatch frame of a paced session: sent at `send_us` on the run
/// clock, carrying every touch registered in the frame interval before it.
struct PacedFrame {
  Micros send_us = 0;
  api::SubmitBatchReq req;
};

/// Cuts `script` into paced frames on a grid of `interval_us` offset by
/// `phase_us`, up to (and excluding) frames due at or after `horizon_us`.
/// Empty intervals (think time) send nothing.
std::vector<PacedFrame> CutPacedFrames(SessionScript& script,
                                       Micros interval_us, Micros phase_us,
                                       Micros horizon_us);

/// The next `n` touches of `script` as one unpaced frame.
api::SubmitBatchReq NextBurstFrame(SessionScript& script, int n);

/// WireAction for an ActionConfig (the mapping TouchServer decodes).
api::WireAction ToWireAction(const dbtouch::core::ActionConfig& action);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
