// PolarDraw end-to-end pipeline (the paper's Fig. 5 workflow).
//
// Raw tag reports -> pre-processing (windowing + spurious rejection) ->
// per-window motion classification (RSS-trend split) -> rotational or
// translational direction estimation -> displacement bounds + hyperbola ->
// HMM/Viterbi trajectory decoding -> final rotation correction.
//
// This facade is the library's primary public API: construct it with the
// algorithm config and antenna geometry, feed a report stream, and get the
// recovered pen trajectory.
#pragma once

#include <vector>

#include "common/vec.h"
#include "core/config.h"
#include "core/motion_front_end.h"
#include "core/preprocess.h"
#include "rfid/tag_report.h"

namespace polardraw::core {

/// Result of tracking one writing session.
struct TrackingResult {
  /// Recovered pen trajectory (meters): the decode's start point plus one
  /// point per window, less the `kWarmupWindows` leading points, which are
  /// trimmed whenever that leaves more than 8.
  std::vector<Vec2> trajectory;
  /// Each window's raw (unsmoothed) observation. Untrimmed, it has one
  /// entry fewer than the trajectory; after the default 8-window warm-up
  /// trim it has 7 more.
  std::vector<TimedObservation> diagnostics;
  /// Count of windows classified rotational / translational / idle.
  int rotational_windows = 0;
  int translational_windows = 0;
  int idle_windows = 0;
  /// Initial-azimuth correction applied via Eq. 10 (radians).
  double azimuth_correction_rad = 0.0;
};

class PolarDraw {
 public:
  /// `a1`, `a2`: board-plane antenna positions; `antenna_z`: standoff.
  PolarDraw(PolarDrawConfig cfg, Vec2 a1, Vec2 a2, double antenna_z);

  /// Tracks a full writing session from raw, time-ordered reports (the
  /// reader's native order): preprocess() drops and counts a read that
  /// arrives after its window was finished.
  TrackingResult track(const rfid::TagReportStream& reports,
                       const PhaseCalibration* calibration = nullptr) const;

  const PolarDrawConfig& config() const { return cfg_; }

 private:
  PolarDrawConfig cfg_;
  Vec2 a1_, a2_;
  double antenna_z_;
};

}  // namespace polardraw::core
