// Per-window motion front end (paper sections 3.3-3.4), shared by the
// batch pipeline (PolarDraw::track pushes every window, then flushes) and
// the multi-pen associator (one instance per pen).
//
// For each gated Window it differences RSS and unwrapped phase against the
// previous valid window per antenna, classifies the motion by the RSS-trend
// split (rotational when either antenna's RSS moved by at least
// kRotationRssDeltaDb, else translational from the phase trends), runs
// the rotation or translation direction decode, and bounds the
// displacement (Eq. 5 annulus + Eq. 7 hyperbola data). Directions are then
// smoothed with a [1/4 1/2 1/4] kernel over raw neighbours; because that
// kernel looks one window ahead, each observation is released one push
// late, and flush() releases the last one smoothed on its left only.
#pragma once

#include <optional>

#include "common/vec.h"
#include "core/config.h"
#include "core/distance_estimator.h"
#include "core/motion.h"
#include "core/preprocess.h"
#include "core/rotation_tracker.h"
#include "core/translation_tracker.h"

namespace polardraw::core {

/// Raw (unsmoothed) estimate of one window, for diagnostics, tests and
/// the pen-tip offset compensation.
struct WindowDiagnostics {
  double t_s = 0.0;
  MotionType motion = MotionType::kIdle;
  DirectionEstimate direction;
  DistanceEstimate distance;
};

/// An observation released from the smoothing hold, with its window time.
struct TimedObservation {
  double t_s = 0.0;
  TrackObservation obs;
};

class MotionFrontEnd {
 public:
  explicit MotionFrontEnd(const PolarDrawConfig& cfg);

  struct Step {
    /// The pushed window's own estimate, available immediately.
    WindowDiagnostics diagnostics;
    /// The previous window's observation, now smoothed with both raw
    /// neighbours (empty on the first push).
    std::optional<TimedObservation> released;
  };

  /// Feeds the next window (phases already gated by PhaseGate, which marks
  /// the windows its hop fence restarts).
  Step push(const Window& w);

  /// Releases the held last window, smoothed with its left neighbour only
  /// (empty when nothing is held).
  std::optional<TimedObservation> flush();

  /// Eq. 10 initial-azimuth correction, radians: set once, at the first
  /// sector crossing; 0 before it.
  [[nodiscard]] double azimuth_correction_rad() const {
    return rotation_.azimuth_correction_rad();
  }

 private:
  /// Applies the smoothing kernel to `held_` given the raw direction of
  /// the window after it (nullptr at the tail).
  TimedObservation release(const Vec2* next_raw);

  PolarDrawConfig cfg_;
  RotationTracker rotation_;
  TranslationTracker translation_;
  DistanceEstimator distance_;

  // "Previous valid" values per antenna, so gaps (rejected or missed
  // windows) difference across the gap instead of producing garbage.
  double prev_rss_dbm_[2] = {0.0, 0.0};
  bool have_rss_[2] = {false, false};
  double prev_phase_rad_[2] = {0.0, 0.0};
  bool have_phase_[2] = {false, false};

  // The one-window smoothing hold: the last pushed window's observation
  // and the raw direction of the window before it.
  std::optional<TimedObservation> held_;
  std::optional<Vec2> before_held_raw_;
};

}  // namespace polardraw::core
