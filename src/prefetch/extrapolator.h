// Gesture extrapolation: "dbTouch can extrapolate the gesture progression
// (speed and direction) and fetch the expected entries such that they are
// readily available if the gesture resumes" (Section 2.6 "Prefetching
// Data").
//
// The extrapolator observes (time, row) pairs from slide steps and
// predicts the row range the finger will touch over a look-ahead horizon.

#ifndef DBTOUCH_PREFETCH_EXTRAPOLATOR_H_
#define DBTOUCH_PREFETCH_EXTRAPOLATOR_H_

#include <cstdint>

#include "sim/virtual_clock.h"
#include "storage/types.h"

namespace dbtouch::prefetch {

struct RowRange {
  storage::RowId first = 0;  // inclusive
  storage::RowId last = 0;   // inclusive

  bool empty() const { return last < first; }
  std::int64_t size() const { return empty() ? 0 : last - first + 1; }
};

class GestureExtrapolator {
 public:
  /// Feeds the row just touched at `now`.
  void Observe(sim::Micros now, storage::RowId row);

  /// Feeds the cache's claimed-before-eviction score for this object's
  /// warm-ups: the fraction of staged prefetches a pin claimed before the
  /// staging cap dropped them (1.0 = every warm-up paid off). Smoothed
  /// with the same EWMA weight as the velocity.
  void ObserveClaimRate(double rate);

  /// Horizon multiplier derived from the claim rate, in [0.5, 2.0]: a
  /// fully claimed warm-up stream doubles the look-ahead, one that mostly
  /// dies unclaimed halves it. 1.0 before any feedback.
  double horizon_scale() const;

  /// Smoothed velocity in rows/second; signed (negative = sliding towards
  /// smaller row ids).
  double velocity_rows_per_s() const { return velocity_; }

  /// True when no movement has been observed for the pause gap (0.25 s).
  bool IsPaused(sim::Micros now) const;

  /// Predicted touch range over the next `horizon_s` seconds from the last
  /// observed row, clamped to [0, n). During a pause the prediction is the
  /// neighbourhood of the current row (the user is inspecting; resumption
  /// direction is unknown, so prefetch symmetrically).
  RowRange PredictRange(sim::Micros now, double horizon_s,
                        std::int64_t n) const;

  void Reset();

 private:
  bool has_observation_ = false;
  sim::Micros last_time_ = 0;
  storage::RowId last_row_ = 0;
  double velocity_ = 0.0;
  bool has_claim_rate_ = false;
  double claim_rate_ = 1.0;
};

}  // namespace dbtouch::prefetch

#endif  // DBTOUCH_PREFETCH_EXTRAPOLATOR_H_
