// Linear polarization math.
//
// A linearly polarized wave carries its electric field along a fixed axis in
// the plane transverse to propagation (paper Fig. 1). A linear antenna (or a
// dipole tag) couples to such a wave in proportion to the cosine of the
// mismatch angle between the field axis and its own axis; received *power*
// therefore scales with cos^2 (Malus' law), and a full backscatter round
// trip through the same mismatch scales with cos^4.
#pragma once

#include <complex>

#include "common/vec.h"

namespace polardraw::em {

/// Projects `axis` onto the plane orthogonal to the unit propagation
/// direction `los_dir` and normalizes. Returns the zero vector when `axis`
/// is (numerically) parallel to `los_dir`, i.e. the element presents no
/// transverse extent to the wave.
Vec3 transverse_component(const Vec3& axis, const Vec3& los_dir);

/// Polarization mismatch angle between two axes as seen across a link with
/// line-of-sight direction `los_dir` (unit vector from one end to the other).
///
/// Both axes are projected into the transverse plane first. The result is in
/// [0, pi/2]: polarization is orientation-less (an axis, not a direction),
/// so mismatch is taken modulo pi. Returns pi/2 (full mismatch) when either
/// axis degenerates to zero transverse extent.
double mismatch_angle(const Vec3& axis_a, const Vec3& axis_b, const Vec3& los_dir);

/// One-way power coupling factor cos^2(beta) for a mismatch angle beta.
double malus_factor(double mismatch_rad);

/// Complex one-way field coupling of a real linear antenna with finite
/// cross-polarization discrimination (XPD): the co-polar component couples
/// with cos(beta) and the cross-polar component leaks in quadrature with
/// amplitude sqrt(leak)*sin(beta), where leak = 10^(-XPD/10).
///
/// Near deep mismatch (beta -> 90 deg) the leak term dominates, so the
/// received *phase* glides away from the line-of-sight value while the
/// power bottoms out at the XPD floor instead of a perfect null -- the
/// "spurious phase readings" the paper's feasibility study observes.
std::complex<double> complex_field_coupling(double mismatch_rad,
                                            double xpd_db = 22.0);

}  // namespace polardraw::em
