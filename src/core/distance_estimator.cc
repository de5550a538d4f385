#include "core/distance_estimator.h"

#include <algorithm>
#include <cmath>

#include "common/angles.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace polardraw::core {

DistanceEstimate DistanceEstimator::estimate(double dtheta1, double dtheta2,
                                             double theta1_now,
                                             double theta2_now) const {
  static const obs::SpanSite span_site("core.distance_estimate");
  const obs::ScopedSpan span(span_site);
  DistanceEstimate e;
  // Deduct the phase-noise margin before applying the triangle-inequality
  // lower bound: a noisy reading of a stationary tag must not demand
  // movement.
  const auto denoised = [this](double dtheta) {
    const double mag = std::max(std::fabs(dtheta) - cfg_.phase_noise_margin_rad, 0.0);
    return link_delta(mag);
  };
  e.lower_m = std::max(denoised(dtheta1), denoised(dtheta2));
  e.upper_m = cfg_.vmax_mps * cfg_.window_s;
  // Wrap once at the source so every consumer sees [0, 2pi). Readers report
  // phase in [0, 2pi) already, but the difference of two such values lives
  // in (-2pi, 2pi); pre-PR2 each consumer had to re-wrap defensively.
  e.dtheta21 = wrap_2pi(theta2_now - theta1_now);
  // A displacement whose phase-implied lower bound exceeds the speed-limit
  // upper bound is physically inconsistent (usually residual spurious
  // phase); flag it so the HMM falls back to the transition prior.
  e.valid = e.lower_m <= e.upper_m + 1e-9;
  return e;
}

double DistanceEstimator::expected_dtheta21(const Vec2& p, const Vec2& a1,
                                            const Vec2& a2,
                                            double antenna_z) const {
  const double l1 = std::sqrt((p - a1).norm_sq() + antenna_z * antenna_z);
  const double l2 = std::sqrt((p - a2).norm_sq() + antenna_z * antenna_z);
  return wrap_2pi(4.0 * kPi * (l2 - l1) / cfg_.wavelength_m);
}

}  // namespace polardraw::core
