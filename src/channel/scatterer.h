// Environmental scatterers for the multipath channel.
//
// The paper's feasibility study (section 2) observes that when the tag is
// cross-polarized to the antenna, it still harvests energy via reflected
// (non-line-of-sight) paths whose polarization has been rotated by the
// reflection — producing "spurious" phase readings. Section 5.2.5 further
// studies a bystander standing (static multipath) or walking (dynamic
// multipath) near the whiteboard. This module models both.
#pragma once

#include "common/vec.h"

namespace polardraw::channel {

/// Motion model of a scatterer.
enum class ScattererMotion {
  kStatic,   // walls, furniture, a standing bystander
  kWalking,  // a bystander walking near the board
};

/// A point scatterer that reflects the reader's signal toward the tag
/// (and the tag's backscatter toward the reader) with attenuation and a
/// polarization rotation.
struct Scatterer {
  /// Nominal position, board coordinates, meters.
  Vec3 position;

  ScattererMotion motion = ScattererMotion::kStatic;

  /// Walking model: sinusoidal oscillation around `position`.
  Vec3 walk_direction{1.0, 0.0, 0.0};  // unit vector of the walk line
  double walk_amplitude_m = 0.5;       // half the walk span
  double walk_period_s = 3.0;          // time per full back-and-forth

  /// Power reflection coefficient (linear, 0..1) per bounce.
  double reflectivity = 0.1;

  /// How strongly the reflection rotates polarization: 0 preserves the
  /// incident axis, 1 fully scrambles toward the scatterer's own axis.
  double depolarization = 0.7;

  /// Effective polarization axis the reflected field is rotated toward.
  Vec3 reflected_axis{0.3, 0.8, 0.52};

  /// Position at simulation time t (walking scatterers oscillate).
  Vec3 position_at(double t_s) const;
};

/// A standing bystander at `distance_m` in front of the board center
/// (paper Fig. 16, "static multi-path").
Scatterer make_bystander_static(double distance_m, const Vec3& board_center);

/// A walking bystander sweeping laterally at `distance_m` standoff
/// (paper Fig. 16, "dynamic multi-path").
Scatterer make_bystander_walking(double distance_m, const Vec3& board_center);

/// Background office clutter: a weak static reflector off to the side.
/// Deployed by default so even the "clean" environment is not free-space.
Scatterer make_office_clutter(int index);

}  // namespace polardraw::channel
