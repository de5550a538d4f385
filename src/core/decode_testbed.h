// Seeded synthetic observation streams for the decode hot path.
//
// Shared by polarbench's decode and server workloads and the golden
// determinism tests: all need repeatable TrackObservation sequences that
// exercise every emission term (direction lines, annulus bounds, hyperbola
// matches, idle windows, missing-phase windows) without paying for the
// full scene simulation.
// The stream is a pure function of (config, window count, seed).
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/angles.h"
#include "common/rng.h"
#include "common/vec.h"
#include "core/config.h"
#include "core/distance_estimator.h"
#include "core/motion.h"

namespace polardraw::core {

struct DecodeTestbed {
  Vec2 a1, a2;
  double antenna_z = 0.12;
  Vec2 start;                         // ground-truth start (use as hint)
  std::vector<TrackObservation> obs;
};

/// Random-walk pen over the board: per window draws idle/move, integrates
/// a smoothly-wandering heading, and emits the three observation channels
/// with mild noise. Deterministic for a given (cfg, n_windows, seed).
inline DecodeTestbed make_decode_testbed(const PolarDrawConfig& cfg,
                                         int n_windows, std::uint64_t seed) {
  DecodeTestbed tb;
  tb.a1 = Vec2{cfg.board_width_m * 0.25, cfg.board_height_m + 0.05};
  tb.a2 = Vec2{cfg.board_width_m * 0.75, cfg.board_height_m + 0.05};

  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  const DistanceEstimator dist(cfg);
  const double margin = 0.1;
  Vec2 pos{cfg.board_width_m * (margin + (1.0 - 2.0 * margin) * rng.uniform()),
           cfg.board_height_m *
               (margin + (1.0 - 2.0 * margin) * rng.uniform())};
  tb.start = pos;
  double heading = rng.uniform(0.0, kTwoPi);

  tb.obs.reserve(static_cast<std::size_t>(n_windows));
  for (int i = 0; i < n_windows; ++i) {
    TrackObservation o;
    double step = 0.0;
    if (!rng.chance(0.15)) {  // 15% idle windows
      heading += rng.gaussian(0.0, 0.35);
      step = rng.uniform(0.35, 0.9) * cfg.vmax_mps * cfg.window_s;
      Vec2 d{std::cos(heading), std::sin(heading)};
      // Reflect off the board margins so the walk stays in-bounds.
      Vec2 next = pos + d * step;
      if (next.x < margin * cfg.board_width_m ||
          next.x > (1.0 - margin) * cfg.board_width_m) {
        heading = kPi - heading;
        d = Vec2{std::cos(heading), std::sin(heading)};
        next = pos + d * step;
      }
      if (next.y < margin * cfg.board_height_m ||
          next.y > (1.0 - margin) * cfg.board_height_m) {
        heading = -heading;
        d = Vec2{std::cos(heading), std::sin(heading)};
        next = pos + d * step;
      }
      o.direction.type = MotionType::kTranslational;
      // The direction estimator quantizes poorly; perturb the true heading.
      o.direction.direction =
          d.rotated(rng.gaussian(0.0, 0.15)).normalized();
      pos = next;
    }
    o.distance.lower_m = step * rng.uniform(0.7, 0.95);
    o.distance.upper_m = cfg.vmax_mps * cfg.window_s;
    o.distance.valid = true;
    o.has_phase = rng.chance(0.9);
    if (o.has_phase) {
      o.distance.dtheta21 =
          wrap_2pi(dist.expected_dtheta21(pos, tb.a1, tb.a2, tb.antenna_z) +
                   rng.gaussian(0.0, 0.08));
    }
    tb.obs.push_back(o);
  }
  return tb;
}

}  // namespace polardraw::core
