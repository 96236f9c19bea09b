#include "sampling/level_policy.h"

#include <algorithm>
#include <cmath>

namespace dbtouch::sampling {

int ChooseLevel(std::int64_t base_rows, std::int64_t distinct_positions,
                double positions_per_event, int num_levels,
                const LevelPolicyConfig& config) {
  if (base_rows <= 0 || distinct_positions <= 0 || num_levels <= 1) {
    return 0;
  }
  const int shed = std::clamp(config.shed_levels, 0, num_levels - 1);
  // Base rows between adjacent touch positions.
  double rows_per_position = static_cast<double>(base_rows) /
                             static_cast<double>(distinct_positions);
  // A gesture skipping k positions per event only samples every k-th
  // position; reads can be k times coarser without losing touched entries.
  // A NaN speed counts as 1, and a zero weight ignores even an infinite
  // one.
  const double speed = positions_per_event > 1.0 ? positions_per_event : 1.0;
  const double coarsening =
      config.speed_weight == 0.0 ? 0.0 : config.speed_weight * (speed - 1.0);
  double target_stride = rows_per_position * (1.0 + coarsening);
  target_stride *= config.max_overshoot;
  if (!(target_stride > 1.0)) {
    // Shedding coarsens even when positions resolve individual tuples:
    // under overload a cheaper approximate answer beats a late exact one.
    return shed;
  }
  // Clamped in double before the cast: an infinite stride is the coarsest
  // level.
  const double level = std::min(std::floor(std::log2(target_stride)),
                                static_cast<double>(num_levels - 1));
  return std::min(static_cast<int>(level) + shed, num_levels - 1);
}

}  // namespace dbtouch::sampling
