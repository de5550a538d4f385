// Reader antenna model.
//
// PolarDraw replaces the reader's stock circularly-polarized antennas with
// linearly-polarized panels mounted above the whiteboard (paper Fig. 4).
// Each antenna is described by its position, boresight, polarization axis,
// and a simple gain model.
#pragma once

#include "common/angles.h"
#include "common/vec.h"

namespace polardraw::em {

/// Polarization mode of a reader antenna.
enum class PolarizationMode {
  kLinear,    // what PolarDraw uses
  kCircular,  // stock RFID antennas (Tagoram / RF-IDraw deployments)
};

/// A reader antenna. Geometry follows DESIGN.md section 6: the whiteboard
/// is the X-Y plane, +Z points from the board toward the antenna rig.
struct ReaderAntenna {
  /// Antenna phase center, meters, in board coordinates.
  Vec3 position;

  /// Unit vector the antenna faces (toward the board, typically -Z-ish).
  Vec3 boresight{0.0, 0.0, -1.0};

  /// Unit vector of the E-field axis for linear polarization. Must be
  /// orthogonal-ish to the boresight; construction helpers guarantee this.
  Vec3 polarization_axis{0.0, 1.0, 0.0};

  PolarizationMode mode = PolarizationMode::kLinear;

  /// Peak gain (dBi) along boresight. The Laird panels the paper uses are
  /// in the 7-9 dBi range.
  double gain_dbi = 8.0;

  /// Half-power beamwidth (radians) of the cos^n pattern used off boresight.
  double beamwidth_rad = deg2rad(70.0);

  /// Cross-polarization discrimination, dB. Real linear panels leak a
  /// quadrature cross-polar component ~20-25 dB below the co-polar one;
  /// it dominates the received phase near deep polarization mismatch.
  double xpd_db = 15.0;

  /// Axial ratio of a circular antenna, dB. An ideal circular antenna
  /// couples equally to every linear orientation; real patches are
  /// slightly elliptical (1-3 dB), leaving a residual orientation ripple
  /// in RSS. Ignored for linear antennas.
  double axial_ratio_db = 2.0;

  /// Major axis of the circular antenna's polarization ellipse (unit
  /// vector, transverse-ish to boresight); the ripple peaks when the tag
  /// aligns with it.
  Vec3 ellipse_major_axis{1.0, 0.0, 0.0};

  /// Linear-scale gain toward a target point, combining peak gain with a
  /// smooth raised-cosine rolloff off boresight. Returns 0 behind the panel.
  double gain_toward(const Vec3& target) const;
};

/// Builds a board-facing linear antenna whose polarization axis lies in the
/// board-parallel plane at `angle_from_x_rad` radians from the +X axis. This is
/// the construction the paper's Fig. 8 uses: two antennas at +/- gamma from
/// the board vertical, i.e. angles pi/2 +/- gamma from X.
ReaderAntenna make_linear_antenna(const Vec3& position, double angle_from_x_rad,
                                  double gain_dbi = 8.0);

/// Builds a board-facing circularly polarized antenna (baseline systems).
ReaderAntenna make_circular_antenna(const Vec3& position, double gain_dbi = 8.0);

}  // namespace polardraw::em
