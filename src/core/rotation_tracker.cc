#include "core/rotation_tracker.h"

#include <cmath>

#include "em/tag.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace polardraw::core {

RotationTracker::RotationTracker(const PolarDrawConfig& cfg) : cfg_(cfg) {}

std::optional<RotationTracker::TrendDecision> RotationTracker::classify_trend(
    double ds1, double ds2) const {
  // Table 3. Antenna 1 (index 0) is polarized at pi/2 + gamma, antenna 2
  // (index 1) at pi/2 - gamma; "=>" (rightward) is clockwise (azimuth
  // decreasing). Requires both deltas to be meaningfully non-zero for the
  // same-sign rows (the rate comparison is meaningless near zero).
  constexpr double kTiny = 1e-6;
  const bool up1 = ds1 > kTiny, up2 = ds2 > kTiny;
  const bool dn1 = ds1 < -kTiny, dn2 = ds2 < -kTiny;
  const double m1 = std::fabs(ds1), m2 = std::fabs(ds2);

  if (up1 && up2) {
    // Sector 1 clockwise (|ds1| < |ds2|) or sector 3 counter-clockwise.
    if (m1 < m2) return TrendDecision{Sector::kSector1, RotationSense::kClockwise};
    return TrendDecision{Sector::kSector3, RotationSense::kCounterClockwise};
  }
  if (dn1 && dn2) {
    if (m1 < m2)
      return TrendDecision{Sector::kSector1, RotationSense::kCounterClockwise};
    return TrendDecision{Sector::kSector3, RotationSense::kClockwise};
  }
  if (dn1 && up2) return TrendDecision{Sector::kSector2, RotationSense::kClockwise};
  if (up1 && dn2)
    return TrendDecision{Sector::kSector2, RotationSense::kCounterClockwise};
  return std::nullopt;
}

double RotationTracker::initial_azimuth(Sector sector,
                                        RotationSense sense) const {
  // Eq. 2: seed at the sector boundary the azimuth is moving away from.
  const double g = cfg_.gamma_rad;
  if (sense == RotationSense::kClockwise) {
    switch (sector) {
      case Sector::kSector1: return kPi - g;
      case Sector::kSector2: return kPi / 2.0 + g;
      case Sector::kSector3: return kPi / 2.0 - g;
      default: break;
    }
  } else if (sense == RotationSense::kCounterClockwise) {
    switch (sector) {
      case Sector::kSector1: return kPi / 2.0 + g;
      case Sector::kSector2: return kPi / 2.0 - g;
      case Sector::kSector3: return g;
      default: break;
    }
  }
  return kPi / 2.0;
}

double RotationTracker::rotation_angle(double alpha_a_rad) const {
  return em::rotation_angle_from_pen({cfg_.alpha_e_rad, alpha_a_rad});
}

Vec2 RotationTracker::motion_direction(double alpha_r_rad, RotationSense sense) {
  // Motion is perpendicular to the board-projected pen angle; the wrist
  // model fixes the horizontal sign: clockwise rotation = moving right.
  const Vec2 pen_dir{std::cos(alpha_r_rad), std::sin(alpha_r_rad)};
  Vec2 perp{-pen_dir.y, pen_dir.x};
  const bool want_right = sense == RotationSense::kClockwise;
  if ((want_right && perp.x < 0.0) || (!want_right && perp.x > 0.0)) {
    perp = -perp;
  }
  return perp.normalized();
}

double RotationTracker::boundary_angle(Sector from, Sector to) const {
  const double g = cfg_.gamma_rad;
  const auto pair = [&](Sector a, Sector b) {
    return (from == a && to == b) || (from == b && to == a);
  };
  if (pair(Sector::kSector1, Sector::kSector2)) return kPi / 2.0 + g;
  if (pair(Sector::kSector2, Sector::kSector3)) return kPi / 2.0 - g;
  // Sectors 1 and 3 are not adjacent; the crossing must have passed
  // through sector 2 unobserved -- snap to the nearer boundary.
  return alpha_a_rad_ > kPi / 2.0 ? kPi / 2.0 + g : kPi / 2.0 - g;
}

RotationSense RotationTracker::sense_in_sector(Sector sector, double ds1,
                                               double ds2) {
  constexpr double kTiny = 1e-6;
  const bool up1 = ds1 > kTiny, up2 = ds2 > kTiny;
  const bool dn1 = ds1 < -kTiny, dn2 = ds2 < -kTiny;
  switch (sector) {
    case Sector::kSector1:
      if (up1 && up2) return RotationSense::kClockwise;
      if (dn1 && dn2) return RotationSense::kCounterClockwise;
      break;
    case Sector::kSector2:
      if (dn1 && up2) return RotationSense::kClockwise;
      if (up1 && dn2) return RotationSense::kCounterClockwise;
      // Near the middle of sector 2 one antenna's response flattens at its
      // peak; fall back to the stronger trend's implied sense.
      if (std::fabs(ds2) > std::fabs(ds1)) {
        if (up2) return RotationSense::kClockwise;
        if (dn2) return RotationSense::kCounterClockwise;
      } else {
        if (dn1) return RotationSense::kClockwise;
        if (up1) return RotationSense::kCounterClockwise;
      }
      break;
    case Sector::kSector3:
      if (dn1 && dn2) return RotationSense::kClockwise;
      if (up1 && up2) return RotationSense::kCounterClockwise;
      break;
    default:
      break;
  }
  return RotationSense::kNone;
}

Sector RotationTracker::sector_of(double alpha_a_rad) const {
  const double g = cfg_.gamma_rad;
  if (alpha_a_rad < kPi / 2.0 - g) return Sector::kSector3;
  if (alpha_a_rad <= kPi / 2.0 + g) return Sector::kSector2;
  return Sector::kSector1;
}

DirectionEstimate RotationTracker::step(double ds1, double ds2) {
  static const obs::SpanSite span_site("core.rotation_step");
  const obs::ScopedSpan span(span_site);
  static const obs::Counter steps_counter("rotation.steps");
  steps_counter.add();
  DirectionEstimate est;
  Sector sector;
  RotationSense sense;

  if (!started_) {
    // Bootstrap: full Table 3 decode (sector + sense) from the joint
    // trend/rate pattern, then seed the azimuth at the sector boundary
    // the rotation is leaving (Eq. 2).
    const auto decision = classify_trend(ds1, ds2);
    if (!decision) {
      est.type = MotionType::kIdle;
      return est;
    }
    sector = decision->sector;
    sense = decision->sense;
    alpha_a_rad_ = initial_azimuth(sector, sense);
    sector_ = sector;
    started_ = true;
  } else {
    // Continuous tracking: the tracked azimuth pins the sector, so only
    // the rotation sense needs decoding -- far more robust than re-running
    // the rate comparison, which is noise-fragile near antenna peaks.
    sector = sector_of(alpha_a_rad_);
    sense = sense_in_sector(sector, ds1, ds2);
    if (sense == RotationSense::kNone) {
      // Sign pattern impossible in this sector: the pen crossed into a
      // neighboring sector. Re-decode fully and apply the initial-azimuth
      // correction at the boundary (section 3.3.1).
      const auto decision = classify_trend(ds1, ds2);
      if (!decision) {
        est.type = MotionType::kIdle;
        return est;
      }
      if (decision->sector != sector && sector_ != Sector::kUnknown) {
        const double boundary = boundary_angle(sector, decision->sector);
        // The discrepancy at the FIRST crossing is the initial-azimuth
        // error alpha-tilde (section 3.3.1); later crossings just re-snap
        // the tracked angle -- their discrepancies are tracking noise,
        // not the initial error, and must not pile into Eq. 10.
        if (!correction_locked_) {
          correction_ = alpha_a_rad_ - boundary;
          correction_locked_ = true;
        }
        alpha_a_rad_ = boundary;
      }
      sector = decision->sector;
      sense = decision->sense;
    }
    sector_ = sector;
  }

  // Eqs. 3-4: step the azimuth only when the RSS change is strong enough
  // to indicate genuine rotation. The paper gates on both antennas; near
  // an antenna's response peak its own RSS flattens, so we gate on the
  // stronger change with a reduced requirement on the weaker one.
  const double strong = std::max(std::fabs(ds1), std::fabs(ds2));
  const double weak = std::min(std::fabs(ds1), std::fabs(ds2));
  const double step_rad =
      (strong > kDeltaBetaGateDb && weak > 0.2 * kDeltaBetaGateDb)
          ? kDeltaBetaRad
          : 0.0;
  alpha_a_rad_ += sense == RotationSense::kClockwise ? -step_rad : step_rad;
  // Keep the azimuth inside the sector union [gamma, pi - gamma].
  const double lo = cfg_.gamma_rad, hi = kPi - cfg_.gamma_rad;
  if (alpha_a_rad_ < lo) alpha_a_rad_ = lo;
  if (alpha_a_rad_ > hi) alpha_a_rad_ = hi;

  est.type = MotionType::kRotational;
  est.sense = sense;
  est.sector = sector;
  est.alpha_a_rad = alpha_a_rad_;
  const double alpha_r_rad = rotation_angle(alpha_a_rad_);
  est.direction = motion_direction(alpha_r_rad, sense);
  return est;
}

std::vector<Vec2> correct_initial_azimuth(const PolarDrawConfig& cfg,
                                          std::vector<Vec2> traj,
                                          double alpha_r_error_rad) {
  if (!cfg.use_polarization || !cfg.apply_rotation_correction ||
      std::fabs(alpha_r_error_rad) <= 1e-9 || traj.empty()) {
    return traj;
  }
  Vec2 centroid;
  for (const Vec2& p : traj) centroid += p;
  centroid = centroid / static_cast<double>(traj.size());
  for (Vec2& p : traj) {
    p = centroid + (p - centroid).rotated(-alpha_r_error_rad);
  }
  return traj;
}

}  // namespace polardraw::core
