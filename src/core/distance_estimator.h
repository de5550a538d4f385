// Pen movement distance estimation (paper section 3.4).
//
// From the unwrapped phase change of each antenna over a window, the
// change in the tag-to-antenna link length is Delta-l = Delta-theta *
// lambda / (4*pi) (Eq. 5; the factor 4*pi because backscatter phase covers
// the round trip). The pen displacement d_i is bounded below by
// max(|Delta-l1|, |Delta-l2|) (triangle inequality) and above by
// vmax * Delta-t -- the "feasible region" annulus. The inter-antenna phase
// difference adds a family of candidate hyperbolas (Eqs. 6-7) on which the
// next location must lie.
#pragma once

#include "common/vec.h"
#include "core/config.h"

namespace polardraw::core {

/// Displacement bounds and hyperbola data for one window.
struct DistanceEstimate {
  double lower_m = 0.0;  // max(|dl1|, |dl2|), less the phase-noise margin
  double upper_m = 0.0;  // vmax * dt
  /// Measured inter-antenna phase difference theta2 - theta1, wrapped to
  /// [0, 2*pi) at the source (the physical quantity is only defined modulo
  /// 2*pi anyway). Consumers may compare it against expected_dtheta21 /
  /// PhaseField::phase without re-wrapping.
  double dtheta21 = 0.0;
  bool valid = false;
};

class DistanceEstimator {
 public:
  explicit DistanceEstimator(const PolarDrawConfig& cfg) : cfg_(cfg) {}

  /// Eq. 5 for one antenna: link-length change from a phase change.
  double link_delta(double dtheta_rad) const {
    return dtheta_rad * cfg_.wavelength_m / (4.0 * kPi);
  }

  /// Full per-window estimate from both antennas' phase deltas and the
  /// current inter-antenna phase difference.
  DistanceEstimate estimate(double dtheta1, double dtheta2,
                            double theta1_now, double theta2_now) const;

  /// Expected (wrapped) inter-antenna phase difference for a tag at `p`
  /// given the two antenna positions -- the hyperbola field of Eq. 7.
  /// `antenna_z` lifts the antennas off the board plane.
  double expected_dtheta21(const Vec2& p, const Vec2& a1, const Vec2& a2,
                           double antenna_z) const;

 private:
  PolarDrawConfig cfg_;
};

}  // namespace polardraw::core
