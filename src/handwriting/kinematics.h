// Pen-tip kinematics: turns glyph polylines into a time-sampled trajectory
// with a human-like speed profile (slowdowns at corners, brisk transit
// between strokes, dwell pauses at stroke starts).
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/vec.h"
#include "handwriting/stroke_font.h"

namespace polardraw::handwriting {

/// One time-sampled point of the pen-tip path (board plane).
struct PathSample {
  double t_s = 0.0;
  Vec2 pos;            // meters, board coordinates
  Vec2 velocity;       // m/s
  bool pen_down = true;  // false while hopping between strokes
};

/// Speed while moving (pen lifted) between strokes, m/s.
inline constexpr double kTransitSpeed = 0.16;
/// Fraction of cruise speed at a sharp corner (cosine-of-turn scaled).
inline constexpr double kCornerSlowdown = 0.35;
/// Dwell before starting each stroke, seconds.
inline constexpr double kStrokeStartPauseS = 0.08;
/// Extra dwell at the very first stroke start (the writer settles the
/// pen before writing); also gives trackers time to anchor.
inline constexpr double kInitialDwellS = 0.6;
/// Output sampling interval, seconds. 5 ms comfortably oversamples the
/// reader's ~100 Hz interrogation so the reader can interpolate.
inline constexpr double kSampleDt = 0.005;

struct KinematicsConfig {
  /// Cruise writing speed along a stroke, m/s. Typical board writing is
  /// 5-15 cm/s; the paper bounds the tracker at vmax = 0.2 m/s.
  double cruise_speed = 0.10;

  /// Random speed wobble (fractional std-dev).
  double speed_jitter = 0.10;
};

/// Samples the pen path through a sequence of strokes already scaled and
/// placed in board coordinates (meters). `t0` is the start time.
std::vector<PathSample> sample_path(const std::vector<Stroke>& strokes_m,
                                    const KinematicsConfig& cfg, Rng& rng,
                                    double t0 = 0.0);

/// Scales and translates a glyph's strokes into board coordinates:
/// `origin` is the lower-left of the letter box, `size_m` the letter height.
std::vector<Stroke> place_glyph(const Glyph& glyph, Vec2 origin, double size_m);

}  // namespace polardraw::handwriting
