#include "handwriting/wrist.h"

#include <algorithm>
#include <cmath>

#include "common/angles.h"

namespace polardraw::handwriting {

WristModel::WristModel(WristStyle style, Rng rng)
    : style_(style), rng_(rng) {}

double WristModel::azimuth_from_rotation(double alpha_r_rad, double alpha_e_rad,
                                         double min_azimuth_rad) {
  // cos(alpha_a) = tan(alpha_e_rad) / tan(alpha_r_rad). Fold alpha_r_rad to [0, pi)
  // first (a projected line angle). tan(alpha_r_rad) -> 0 (pen projection
  // horizontal) saturates the azimuth at the clamp.
  const double ar = fold_pi(alpha_r_rad);
  const double t = std::tan(ar);
  double cos_a;
  if (std::fabs(t) < 1e-9) {
    cos_a = std::tan(alpha_e_rad) > 0.0 ? 1.0 : -1.0;
  } else {
    cos_a = std::tan(alpha_e_rad) / t;
  }
  const double limit = std::cos(min_azimuth_rad);
  cos_a = std::clamp(cos_a, -limit, limit);
  return std::acos(cos_a);
}

em::PenAngles WristModel::step(const PathSample& sample) {
  const double dt = started_ ? std::max(sample.t_s - prev_t_, 0.0) : 0.0;
  prev_t_ = sample.t_s;
  (void)dt;

  if (!started_ || !sample.pen_down) {
    // Hand repositions freely while the pen is lifted: the pivot glides
    // to its rest offset under the tip.
    pivot_ = sample.pos + style_.pivot_offset;
    started_ = true;
  } else {
    // Pen down: the hand rests -- the pivot stays put -- unless posture
    // leaves the comfortable envelope, in which case the hand slides just
    // enough to restore it (keeping the projected angle pinned at the
    // envelope edge while it does).
    const Vec2 radius = sample.pos - pivot_;
    const double len = radius.norm();
    double ar;
    if (len < kMinReachM) {
      // The tip has come back over the hand; real writers keep the pen
      // angle and retreat the hand, so hold the previous angle while the
      // reach clamp below slides the pivot away.
      ar = last_ar_;
    } else {
      ar = radius.angle();  // (-pi, pi]
      if (ar < 0.0) ar += kPi;  // fold: projection is a line
    }
    const double lo = kPi / 2.0 - style_.alpha_r_half_range_rad;
    const double hi = kPi / 2.0 + style_.alpha_r_half_range_rad;
    const double ar_clamped = std::clamp(ar, lo, hi);
    const double len_clamped =
        std::clamp(len, kMinReachM, style_.max_reach_m);
    if (ar_clamped != ar || len_clamped != len) {
      // Slide: keep the tip, move the pivot to the clamped posture.
      // The radius direction from pivot to tip is "up-ish" (the hand sits
      // below the tip), i.e. the unfolded angle equals the folded one.
      const Vec2 dir{std::cos(ar_clamped), std::sin(ar_clamped)};
      pivot_ = sample.pos - dir * len_clamped;
      ar = ar_clamped;
    }
    last_ar_ = ar;

    const double elevation = kElevationRad + elevation_offset_rad_;
    azimuth_rad_ = azimuth_from_rotation(ar, elevation);
  }

  if (dt > 0.0) {
    elevation_offset_rad_ +=
        rng_.gaussian(0.0, style_.elevation_wander_rad * std::sqrt(dt));
    elevation_offset_rad_ = std::clamp(elevation_offset_rad_, -0.2, 0.2);
  }
  double az = azimuth_rad_ + rng_.gaussian(0.0, style_.tremor_rad);
  az = std::clamp(az, deg2rad(8.0), deg2rad(172.0));

  return em::PenAngles{kElevationRad + elevation_offset_rad_, az};
}

}  // namespace polardraw::handwriting
