#include "em/antenna.h"

#include <cmath>

#include "common/units.h"

namespace polardraw::em {

double ReaderAntenna::gain_toward(const Vec3& target) const {
  const Vec3 dir = (target - position).normalized();
  const double c = dir.dot(boresight);
  if (c <= 0.0) return 0.0;  // behind the panel
  // Raised-cosine pattern calibrated so gain halves at the half-power angle.
  const double off_angle = std::acos(std::min(c, 1.0));
  const double n = std::log(0.5) / std::log(std::cos(beamwidth_rad / 2.0));
  const double pattern = std::pow(c, n);
  (void)off_angle;
  return db_to_ratio(gain_dbi) * pattern;
}

ReaderAntenna make_linear_antenna(const Vec3& position, double angle_from_x_rad,
                                  double gain_dbi) {
  ReaderAntenna a;
  a.position = position;
  a.boresight = Vec3{0.0, 0.0, -1.0};
  a.polarization_axis =
      Vec3{std::cos(angle_from_x_rad), std::sin(angle_from_x_rad), 0.0};
  a.mode = PolarizationMode::kLinear;
  a.gain_dbi = gain_dbi;
  return a;
}

ReaderAntenna make_circular_antenna(const Vec3& position, double gain_dbi) {
  ReaderAntenna a;
  a.position = position;
  a.boresight = Vec3{0.0, 0.0, -1.0};
  a.mode = PolarizationMode::kCircular;
  a.gain_dbi = gain_dbi;
  return a;
}

}  // namespace polardraw::em
