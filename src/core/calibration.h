// Reference-tag phase calibration.
//
// The tracking algorithms compare phases across antenna ports (the Eq. 7
// hyperbola), which requires knowing each port's RF-chain phase offset.
// Real deployments estimate these with a reference tag at a known
// position -- the same procedure Tagoram describes -- rather than reading
// them out of the hardware. This module implements that procedure: given
// a report stream from a static tag at a known location, it solves for
// the per-port offsets that make the measured phases consistent with the
// known geometry.
#pragma once

#include <optional>
#include <vector>

#include "common/vec.h"
#include "core/preprocess.h"
#include "em/constants.h"
#include "rfid/tag_report.h"

namespace polardraw::core {

struct CalibrationSetup {
  /// Known reference-tag position (board coordinates, meters).
  Vec3 tag_position;
  /// Antenna phase-center positions, one per port.
  std::vector<Vec3> antenna_positions;
  /// Carrier wavelength, meters: the reader's carrier by default.
  double wavelength_m = em::kDefaultWavelength;
};

struct CalibrationResult {
  PhaseCalibration calibration;
  /// Circular standard deviation of the residual phase per port, radians.
  /// Large values mean the reference measurement was unstable (multipath,
  /// moving tag) and the calibration should not be trusted.
  std::vector<double> residual_std_rad;
  /// Number of reads used per port.
  std::vector<int> reads_used;
};

/// Estimates per-port phase offsets from reads of a static reference tag:
/// offset_j = circular_mean(measured_j) - 4*pi*|antenna_j - tag| / lambda.
/// Drops (and counts) reads rfid::admit_report refuses. Returns nullopt
/// if any port has fewer than `min_reads` reads.
std::optional<CalibrationResult> calibrate_from_reference(
    const rfid::TagReportStream& reports, const CalibrationSetup& setup,
    int min_reads = 10);

}  // namespace polardraw::core
