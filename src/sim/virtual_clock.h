// Virtual time. Gesture traces carry virtual timestamps, and the kernel's
// VirtualClock follows them, so trace replays and the benchmarks built on
// them are deterministic and independent of wall-clock noise.

#ifndef DBTOUCH_SIM_VIRTUAL_CLOCK_H_
#define DBTOUCH_SIM_VIRTUAL_CLOCK_H_

#include <cstdint>

namespace dbtouch::sim {

/// Microseconds since simulation start. Signed so durations subtract safely.
using Micros = std::int64_t;

inline constexpr Micros kMicrosPerMilli = 1'000;
inline constexpr Micros kMicrosPerSecond = 1'000'000;

constexpr Micros SecondsToMicros(double seconds) {
  return static_cast<Micros>(seconds * static_cast<double>(kMicrosPerSecond));
}

constexpr double MicrosToSeconds(Micros us) {
  return static_cast<double>(us) / static_cast<double>(kMicrosPerSecond);
}

constexpr double MicrosToMillis(Micros us) {
  return static_cast<double>(us) / static_cast<double>(kMicrosPerMilli);
}

/// A monotonically advancing simulated clock.
///
/// Trace replay drives the clock forward to each event's timestamp; the
/// kernel reads now() to decide which results are still on screen.
class VirtualClock {
 public:
  VirtualClock() = default;

  Micros now() const { return now_us_; }

  /// Moves time forward to `t`. Ignores moves into the past (replaying a
  /// trace event that carries an older timestamp is a no-op advance), so
  /// time never runs backwards.
  void AdvanceTo(Micros t) {
    if (t > now_us_) {
      now_us_ = t;
    }
  }

  /// Moves time forward by `dt` (must be >= 0).
  void Advance(Micros dt) {
    if (dt > 0) {
      now_us_ += dt;
    }
  }

  /// Resets to t=0 (new simulation run).
  void Reset() { now_us_ = 0; }

 private:
  Micros now_us_ = 0;
};

}  // namespace dbtouch::sim

#endif  // DBTOUCH_SIM_VIRTUAL_CLOCK_H_
