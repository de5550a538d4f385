// Shared motion-estimation types for the tracking stage.
#pragma once

#include "common/vec.h"
#include "core/distance_estimator.h"

namespace polardraw::core {

/// Dominant movement type of a window (section 3.3's RSS-trend split).
enum class MotionType { kRotational, kTranslational, kIdle };

/// Pen rotation sense in the writing model: clockwise azimuthal rotation
/// accompanies rightward motion, counter-clockwise leftward (section 3.2).
enum class RotationSense { kClockwise, kCounterClockwise, kNone };

/// Azimuthal sector of Fig. 8(c). Sector boundaries, measured from +X:
///   sector 3: (gamma,          pi/2 - gamma)
///   sector 2: (pi/2 - gamma,   pi/2 + gamma)
///   sector 1: (pi/2 + gamma,   pi - gamma)
enum class Sector { kUnknown = 0, kSector1 = 1, kSector2 = 2, kSector3 = 3 };

/// Coarse board direction decoded from phase trends (Table 4).
enum class BoardDirection { kNone, kUp, kDown, kLeft, kRight };

/// Per-window direction estimate handed to the HMM stage.
struct DirectionEstimate {
  MotionType type = MotionType::kIdle;
  /// Unit direction of motion in board coordinates (zero when idle).
  Vec2 direction;
  /// For rotational windows: the tracked azimuth.
  double alpha_a_rad = 0.0;
  RotationSense sense = RotationSense::kNone;
  Sector sector = Sector::kUnknown;
};

/// One fused observation per window, as consumed by the HMM decode.
struct TrackObservation {
  DirectionEstimate direction;
  DistanceEstimate distance;
  bool has_phase = false;  // both antennas had valid phase this window
};

/// The window without phase: idle, no hyperbola, displacement in [0, vmax *
/// window]. MotionFrontEnd starts each phaseless window from it, and
/// StreamingDecoder::push decodes a window that is not finite as it.
inline TrackObservation unobserved_window(const PolarDrawConfig& cfg) {
  TrackObservation o;
  o.distance.upper_m = cfg.vmax_mps * cfg.window_s;
  return o;
}

inline Vec2 to_vector(BoardDirection d) {
  switch (d) {
    case BoardDirection::kUp: return {0.0, 1.0};
    case BoardDirection::kDown: return {0.0, -1.0};
    case BoardDirection::kLeft: return {-1.0, 0.0};
    case BoardDirection::kRight: return {1.0, 0.0};
    case BoardDirection::kNone: return {};
  }
  return {};
}

}  // namespace polardraw::core
