#include "sim/touch_device.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace dbtouch::sim {

TouchDevice::TouchDevice(const TouchDeviceConfig& config) : config_(config) {
  DBTOUCH_CHECK(config_.screen_width_cm > 0.0);
  DBTOUCH_CHECK(config_.screen_height_cm > 0.0);
  DBTOUCH_CHECK(config_.points_per_cm > 0.0);
  DBTOUCH_CHECK(config_.touch_event_hz > 0.0);
  DBTOUCH_CHECK(config_.finger_width_cm >= 0.0);
}

Micros TouchDevice::event_interval_us() const {
  return static_cast<Micros>(static_cast<double>(kMicrosPerSecond) /
                             config_.touch_event_hz);
}

PointCm TouchDevice::Quantize(const PointCm& p) const {
  PointCm q;
  q.x = std::clamp(p.x, 0.0, config_.screen_width_cm);
  q.y = std::clamp(p.y, 0.0, config_.screen_height_cm);
  const double ppc = config_.points_per_cm;
  q.x = std::round(q.x * ppc) / ppc;
  q.y = std::round(q.y * ppc) / ppc;
  return q;
}

std::int64_t TouchDevice::DistinctPositions(double length_cm) const {
  if (!(length_cm > 0.0)) {
    return 0;  // Also NaN.
  }
  // Clamp in double before the cast: no length may reach an out-of-range
  // conversion (2^62 positions is far past any screen).
  constexpr double kMaxPositions = static_cast<double>(std::int64_t{1} << 62);
  return static_cast<std::int64_t>(std::min(
             std::floor(length_cm * config_.points_per_cm), kMaxPositions)) +
         1;
}

}  // namespace dbtouch::sim
