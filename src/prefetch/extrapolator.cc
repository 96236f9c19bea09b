#include "prefetch/extrapolator.h"

#include <algorithm>
#include <cmath>

namespace dbtouch::prefetch {

namespace {

// Fixed since the retired ABL-PREFETCH ablation (results recorded in
// src/cache/README.md), which ran these values and swept only the horizon.

/// EWMA weight of the newest velocity (and claim-rate) sample.
constexpr double kSmoothing = 0.3;
/// Gap (s) after which the gesture is considered paused; velocity decays
/// rather than projecting stale movement forward.
constexpr double kPauseAfterS = 0.25;

}  // namespace

void GestureExtrapolator::Observe(sim::Micros now, storage::RowId row) {
  if (!has_observation_) {
    has_observation_ = true;
    last_time_ = now;
    last_row_ = row;
    velocity_ = 0.0;
    return;
  }
  const sim::Micros dt = now - last_time_;
  if (dt > 0) {
    const double inst = static_cast<double>(row - last_row_) /
                        sim::MicrosToSeconds(dt);
    velocity_ = kSmoothing * inst + (1.0 - kSmoothing) * velocity_;
  }
  last_time_ = now;
  last_row_ = row;
}

void GestureExtrapolator::ObserveClaimRate(double rate) {
  rate = std::clamp(rate, 0.0, 1.0);
  if (!has_claim_rate_) {
    has_claim_rate_ = true;
    claim_rate_ = rate;
    return;
  }
  claim_rate_ = kSmoothing * rate + (1.0 - kSmoothing) * claim_rate_;
}

double GestureExtrapolator::horizon_scale() const {
  if (!has_claim_rate_) {
    return 1.0;
  }
  // Linear in the claim rate: 0 -> 0.5 (stop outrunning the cache),
  // 1 -> 2.0 (warm-ups all land and get used; reach further).
  return 0.5 + 1.5 * claim_rate_;
}

bool GestureExtrapolator::IsPaused(sim::Micros now) const {
  if (!has_observation_) {
    return true;
  }
  return sim::MicrosToSeconds(now - last_time_) > kPauseAfterS;
}

RowRange GestureExtrapolator::PredictRange(sim::Micros now, double horizon_s,
                                           std::int64_t n) const {
  RowRange out;
  if (!has_observation_ || n <= 0) {
    out.first = 0;
    out.last = -1;
    return out;
  }
  const auto clamp_row = [n](double r) {
    return std::clamp<storage::RowId>(
        static_cast<storage::RowId>(std::llround(r)), 0, n - 1);
  };
  if (IsPaused(now)) {
    // Unknown resumption direction: symmetric neighbourhood sized by the
    // last known speed (at least a small window).
    const double reach =
        std::max(std::abs(velocity_) * horizon_s / 2.0, 16.0);
    out.first = clamp_row(static_cast<double>(last_row_) - reach);
    out.last = clamp_row(static_cast<double>(last_row_) + reach);
    return out;
  }
  const double target =
      static_cast<double>(last_row_) + velocity_ * horizon_s;
  if (velocity_ >= 0.0) {
    out.first = last_row_;
    out.last = clamp_row(target);
  } else {
    out.first = clamp_row(target);
    out.last = last_row_;
  }
  return out;
}

void GestureExtrapolator::Reset() {
  has_observation_ = false;
  last_time_ = 0;
  last_row_ = 0;
  velocity_ = 0.0;
  // The claim-rate EWMA survives Reset on purpose: it models the cache's
  // capacity to absorb this object's warm-ups, not the gesture in flight.
}

}  // namespace dbtouch::prefetch
