#include "em/polarization.h"

#include <algorithm>
#include <cmath>

#include "common/units.h"

namespace polardraw::em {

namespace {
constexpr double kDegenerateNormSq = 1e-18;
}  // namespace

Vec3 transverse_component(const Vec3& axis, const Vec3& los_dir) {
  const Vec3 parallel = los_dir * axis.dot(los_dir);
  const Vec3 transverse = axis - parallel;
  if (transverse.norm_sq() < kDegenerateNormSq) return {};
  return transverse.normalized();
}

double mismatch_angle(const Vec3& axis_a, const Vec3& axis_b, const Vec3& los_dir) {
  const Vec3 ta = transverse_component(axis_a, los_dir);
  const Vec3 tb = transverse_component(axis_b, los_dir);
  if (ta == Vec3{} || tb == Vec3{}) return std::acos(0.0);  // pi/2
  // Axis (not vector) alignment: fold the angle into [0, pi/2].
  const double c = std::clamp(std::fabs(ta.dot(tb)), 0.0, 1.0);
  return std::acos(c);
}

double malus_factor(double mismatch_rad) {
  const double c = std::cos(mismatch_rad);
  return c * c;
}

double backscatter_malus_factor(double mismatch_rad) {
  const double m = malus_factor(mismatch_rad);
  return m * m;
}

std::complex<double> complex_field_coupling(double mismatch_rad,
                                            double xpd_db) {
  const double leak_amp = db_to_amplitude_ratio(-xpd_db);
  return {std::cos(mismatch_rad), leak_amp * std::sin(mismatch_rad)};
}

}  // namespace polardraw::em
