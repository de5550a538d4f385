// Wrist / pen-orientation model.
//
// Implements the writing model of the paper's section 3.2 / Fig. 7 as
// rest-and-pivot kinematics. While a stroke is drawn the hand rests at a
// fixed pivot on the board and the pen pivots about it, so the pen's
// board-plane projection (angle alpha_r_rad) points from the pivot to the tip
// and the tip's motion is perpendicular to it -- clockwise rotation for
// rightward motion, counter-clockwise for leftward. When the pen
// over-extends (the projected angle or the reach leaves the comfortable
// range) the hand slides to restore posture, which momentarily makes the
// motion translation-dominant; pen-up transits reposition the hand under
// the next stroke. The azimuth alpha_a follows from alpha_r_rad by inverting
// the paper's Eq. 1:
//
//   cos(alpha_a) = tan(alpha_e_rad) / tan(alpha_r_rad)
//
// Horizontal stroke segments therefore sweep the azimuth across the
// Fig. 8 sectors (rotation-dominant windows) while vertical segments
// mostly stretch the reach (translation-dominant windows) -- exactly the
// split PolarDraw's motion classifier expects.
#pragma once

#include "common/rng.h"
#include "em/tag.h"
#include "handwriting/kinematics.h"

namespace polardraw::handwriting {

/// Mean pen elevation angle, radians (paper's alpha_e_rad, ~30 deg typical).
inline constexpr double kElevationRad = 0.5235987755982988;  // 30 deg
/// Minimum reach (pivot-to-tip distance), meters; the hand slides to stay
/// outside it.
inline constexpr double kMinReachM = 0.015;
/// Azimuth clamp of the inverse Eq. 1, radians: the azimuth stays in the
/// open interval (kMinAzimuthRad, pi - kMinAzimuthRad).
inline constexpr double kMinAzimuthRad = 0.14;

struct WristStyle {
  /// Slow elevation wander (std-dev, radians) around the mean.
  double elevation_wander_rad = 0.05;

  /// Hand-rest offset from the pen tip (meters, board coordinates):
  /// where the pivot lands when the hand repositions.
  Vec2 pivot_offset{0.005, -0.035};

  /// Comfortable half-range of the projected pen angle around vertical,
  /// radians. The hand slides once alpha_r_rad leaves
  /// [pi/2 - half_range, pi/2 + half_range]. A "stiff" writer (paper's
  /// User 2) has a small half-range: the arm moves, the pen barely
  /// rotates.
  double alpha_r_half_range_rad = 1.0;  // ~57 deg

  /// Maximum reach (pivot-to-tip distance), meters; the hand slides to
  /// stay inside it.
  double max_reach_m = 0.11;

  /// Azimuth tremor (std-dev per sample, radians).
  double tremor_rad = 0.01;
};

/// Stateful generator: feed path samples in time order, get pen angles.
class WristModel {
 public:
  WristModel(WristStyle style, Rng rng);

  /// Advances the wrist state by one path sample and returns the pen
  /// orientation at that instant.
  em::PenAngles step(const PathSample& sample);

  const WristStyle& style() const { return style_; }
  const Vec2& pivot() const { return pivot_; }

  /// Inverse of the paper's Eq. 1: azimuth for a projected pen angle
  /// alpha_r_rad at elevation alpha_e_rad; clamped to the open interval
  /// (kMinAzimuthRad, pi - kMinAzimuthRad). Exposed for tests.
  static double azimuth_from_rotation(double alpha_r_rad, double alpha_e_rad);

 private:
  WristStyle style_;
  Rng rng_;
  Vec2 pivot_;
  bool started_ = false;
  double prev_t_ = 0.0;
  double elevation_offset_rad_ = 0.0;
  double azimuth_rad_ = 1.5707963267948966;
  double last_ar_ = 1.5707963267948966;
};

}  // namespace polardraw::handwriting
