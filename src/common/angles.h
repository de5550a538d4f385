// Angle arithmetic helpers.
//
// RFID phase measurements live on the circle [0, 2*pi); everything that
// touches them (unwrapping, differencing, spurious-jump detection) must be
// careful about wrap-around. These helpers centralize that logic.
#pragma once

#include <cmath>
#include <numbers>

namespace polardraw {

inline constexpr double kPi = std::numbers::pi;
inline constexpr double kTwoPi = 2.0 * std::numbers::pi;

[[nodiscard]] constexpr double deg2rad(double deg) { return deg * kPi / 180.0; }
[[nodiscard]] constexpr double rad2deg(double rad) { return rad * 180.0 / kPi; }

/// Wraps an angle to [0, 2*pi).
[[nodiscard]] inline double wrap_2pi(double rad) {
  double r = std::fmod(rad, kTwoPi);
  if (r < 0.0) r += kTwoPi;
  return r;
}

/// Wraps an angle to (-pi, pi].
[[nodiscard]] inline double wrap_pi(double rad) {
  double r = wrap_2pi(rad);
  if (r > kPi) r -= kTwoPi;
  return r;
}

/// Folds an angle to [0, pi): the canonical representative of a projected
/// *line* angle, which is only meaningful modulo pi (a line at theta and at
/// theta + pi is the same line). Used for board-projected pen rotation and
/// polarization axes.
[[nodiscard]] inline double fold_pi(double rad) {
  double r = std::fmod(rad, kPi);
  if (r < 0.0) r += kPi;
  return r;
}

/// Smallest signed difference a - b on the circle, in (-pi, pi].
[[nodiscard]] inline double angle_diff(double a, double b) { return wrap_pi(a - b); }

/// Absolute circular distance between two angles, in [0, pi].
[[nodiscard]] inline double angle_dist(double a, double b) { return std::fabs(angle_diff(a, b)); }

/// Incremental unwrapper for streaming phase data.
///
/// Usage:
///   PhaseUnwrapper u;
///   double continuous = u.push(raw_phase);   // raw in [0, 2*pi)
class PhaseUnwrapper {
 public:
  /// Feeds the next wrapped sample; returns the unwrapped (continuous) value.
  double push(double wrapped_phase_rad) {
    if (!has_prev_) {
      has_prev_ = true;
      prev_wrapped_ = wrapped_phase_rad;
      unwrapped_ = wrapped_phase_rad;
      return unwrapped_;
    }
    unwrapped_ += angle_diff(wrapped_phase_rad, prev_wrapped_);
    prev_wrapped_ = wrapped_phase_rad;
    return unwrapped_;
  }

  void reset() { has_prev_ = false; unwrapped_ = 0.0; }
  [[nodiscard]] bool has_value() const { return has_prev_; }
  [[nodiscard]] double value() const { return unwrapped_; }
  /// The last wrapped sample pushed (meaningful while has_value()).
  [[nodiscard]] double last_wrapped() const { return prev_wrapped_; }

 private:
  bool has_prev_ = false;
  double prev_wrapped_ = 0.0;
  double unwrapped_ = 0.0;
};

}  // namespace polardraw
