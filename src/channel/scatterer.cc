#include "channel/scatterer.h"

#include <cmath>

#include "common/angles.h"

namespace polardraw::channel {

Vec3 Scatterer::position_at(double t_s) const {
  if (motion == ScattererMotion::kStatic) return position;
  const double phase = kTwoPi * t_s / walk_period_s;
  return position + walk_direction * (walk_amplitude_m * std::sin(phase));
}

Scatterer make_bystander_static(double distance_m, const Vec3& board_center) {
  Scatterer s;
  // A person standing beside the writing area, `distance_m` off the board.
  s.position = board_center + Vec3{0.45, 0.0, distance_m};
  s.motion = ScattererMotion::kStatic;
  // A human torso is a strong, fairly depolarizing reflector.
  s.reflectivity = 0.55;
  s.depolarization = 0.85;
  s.reflected_axis = Vec3{0.2, 0.9, 0.39};  // mostly vertical (standing)
  return s;
}

Scatterer make_bystander_walking(double distance_m, const Vec3& board_center) {
  Scatterer s = make_bystander_static(distance_m, board_center);
  s.motion = ScattererMotion::kWalking;
  s.walk_direction = Vec3{1.0, 0.0, 0.0};
  s.walk_amplitude_m = 0.6;
  s.walk_period_s = 2.4;  // ~1 m/s walking speed over the sweep
  return s;
}

Scatterer make_office_clutter(int index) {
  Scatterer s;
  // Deterministic pseudo-layout: desks/cabinets around the board.
  const double angle = 0.9 + 1.7 * static_cast<double>(index);
  s.position = Vec3{0.5 + 1.5 * std::cos(angle), 0.3 + 0.4 * std::sin(angle),
                    1.2 + 0.5 * std::sin(2.0 * angle)};
  s.motion = ScattererMotion::kStatic;
  s.reflectivity = 0.20;
  s.depolarization = 0.6;
  s.reflected_axis =
      Vec3{std::cos(angle * 1.3), std::sin(angle * 1.3), 0.4}.normalized();
  return s;
}

}  // namespace polardraw::channel
