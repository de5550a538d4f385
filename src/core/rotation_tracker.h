// Rotational movement direction estimation (paper section 3.3.1).
//
// Jointly analyzes the RSS trends of the two differently-polarized antennas
// to (a) break the rotation-direction and azimuthal-angle ambiguities via
// the sector logic of Fig. 8(c) / Table 3, (b) track the azimuth alpha_a
// incrementally (Eqs. 2-4), (c) estimate the initial-azimuth error at the
// pen's first sector crossing, and (d) convert alpha_a to the board
// rotation angle alpha_r (Eq. 1) whose perpendicular is the motion
// direction. correct_initial_azimuth applies that estimate to a finished
// trajectory (Eq. 10).
#pragma once

#include <optional>
#include <vector>

#include "common/vec.h"
#include "core/config.h"
#include "core/motion.h"

namespace polardraw::core {

class RotationTracker {
 public:
  explicit RotationTracker(const PolarDrawConfig& cfg);

  /// Feeds one window's RSS deltas (current minus previous window, dB).
  /// Returns the direction estimate for this window; `type` is
  /// kRotational only when the trends decode to a consistent sector.
  DirectionEstimate step(double delta_s1_db, double delta_s2_db);

  /// The initial-azimuth error alpha-tilde of section 3.3.1, radians: set
  /// once, at the first sector crossing; 0 before it. The final trajectory
  /// rotation (Eq. 10) uses this.
  double azimuth_correction_rad() const { return correction_; }

  /// Current azimuth estimate (radians), if tracking has started.
  std::optional<double> azimuth() const {
    return started_ ? std::optional<double>(alpha_a_rad_) : std::nullopt;
  }

  /// Classifies RSS trends per Table 3. Returns nullopt when the pattern
  /// is inconsistent (e.g. equal-magnitude same-sign changes too close to
  /// call). Exposed for unit tests.
  struct TrendDecision {
    Sector sector;
    RotationSense sense;
  };
  std::optional<TrendDecision> classify_trend(double ds1, double ds2) const;

  /// Once tracking has started the sector is known from the tracked
  /// azimuth, so only the sense must be decoded: invert Table 3's row for
  /// that sector from the RSS-change signs. Returns kNone when the sign
  /// pattern cannot occur in this sector (indicating a sector crossing).
  static RotationSense sense_in_sector(Sector sector, double ds1, double ds2);

  /// Sector containing azimuth `alpha_a_rad` given the configured gamma.
  Sector sector_of(double alpha_a_rad) const;

  /// Eq. 2: the initial azimuth for a (sector, sense) pair.
  double initial_azimuth(Sector sector, RotationSense sense) const;

  /// Eq. 1 wrapper: board rotation angle for the tracked azimuth.
  double rotation_angle(double alpha_a_rad) const;

  /// Motion direction (unit vector) for a rotation angle + sense:
  /// perpendicular to alpha_r, horizontal sign matching the wrist model
  /// (clockwise = rightward).
  static Vec2 motion_direction(double alpha_r_rad, RotationSense sense);

 private:
  /// Sector boundary angle between two adjacent sectors, radians.
  double boundary_angle(Sector from, Sector to) const;

  PolarDrawConfig cfg_;
  bool started_ = false;
  double alpha_a_rad_ = 0.0;
  Sector sector_ = Sector::kUnknown;
  double correction_ = 0.0;
  bool correction_locked_ = false;
};

/// Eq. 10: rotates a finished trajectory about its centroid by
/// `-alpha_r_error_rad` to undo the initial-azimuth error (the
/// rotation-angle error equals the azimuth error to first order in the
/// writing model). Applies only when `cfg` enables both use_polarization
/// and apply_rotation_correction and |alpha_r_error_rad| > 1e-9; otherwise
/// the trajectory comes back untouched, since even a zero-angle rotation
/// perturbs low bits through the centroid round trip.
std::vector<Vec2> correct_initial_azimuth(const PolarDrawConfig& cfg,
                                          std::vector<Vec2> traj,
                                          double alpha_r_error_rad);

}  // namespace polardraw::core
