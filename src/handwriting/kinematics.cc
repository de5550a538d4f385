#include "handwriting/kinematics.h"

#include <algorithm>
#include <cmath>

namespace polardraw::handwriting {

namespace {

/// Local speed multiplier at vertex i of a stroke: 1 on straight runs,
/// down to kCornerSlowdown at hairpin turns.
double corner_factor(const Stroke& s, std::size_t i) {
  if (i == 0 || i + 1 >= s.size()) return 1.0;
  const Vec2 in = (s[i] - s[i - 1]).normalized();
  const Vec2 out = (s[i + 1] - s[i]).normalized();
  const double c = std::clamp(in.dot(out), -1.0, 1.0);
  // c = 1 straight, c = -1 hairpin.
  const double t = (1.0 - c) / 2.0;  // 0..1 turn severity
  return 1.0 - (1.0 - kCornerSlowdown) * t;
}

/// Appends samples moving from `from` to `to` at `speed`, starting at *t.
void emit_segment(std::vector<PathSample>& out, Vec2 from, Vec2 to,
                  double speed, bool pen_down, const KinematicsConfig& cfg,
                  Rng& rng, double* t) {
  const double len = from.dist(to);
  if (len < 1e-9) return;
  const Vec2 dir = (to - from) / len;
  double traveled = 0.0;
  while (traveled < len) {
    const double jitter =
        std::max(0.2, 1.0 + rng.gaussian(0.0, cfg.speed_jitter));
    const double v = speed * jitter;
    const double step = v * kSampleDt;
    traveled = std::min(traveled + step, len);
    *t += kSampleDt;
    out.push_back({*t, from + dir * traveled, dir * v, pen_down});
  }
}

void emit_pause(std::vector<PathSample>& out, Vec2 at, double duration_s,
                bool pen_down, double* t) {
  const int n = static_cast<int>(std::ceil(duration_s / kSampleDt));
  for (int i = 0; i < n; ++i) {
    *t += kSampleDt;
    out.push_back({*t, at, Vec2{}, pen_down});
  }
}

}  // namespace

std::vector<PathSample> sample_path(const std::vector<Stroke>& strokes_m,
                                    const KinematicsConfig& cfg, Rng& rng,
                                    double t0) {
  std::vector<PathSample> out;
  double t = t0;
  Vec2 cursor;
  bool have_cursor = false;

  for (const Stroke& stroke : strokes_m) {
    if (stroke.size() < 2) continue;
    // Transit (pen up) from the previous stroke's end to this stroke's start.
    if (have_cursor) {
      emit_segment(out, cursor, stroke.front(), kTransitSpeed,
                   /*pen_down=*/false, cfg, rng, &t);
    } else {
      out.push_back({t, stroke.front(), Vec2{}, false});
      emit_pause(out, stroke.front(), kInitialDwellS, true, &t);
    }
    emit_pause(out, stroke.front(), kStrokeStartPauseS, true, &t);

    for (std::size_t i = 0; i + 1 < stroke.size(); ++i) {
      const double f0 = corner_factor(stroke, i);
      const double f1 = corner_factor(stroke, i + 1);
      const double speed = cfg.cruise_speed * (f0 + f1) / 2.0;
      emit_segment(out, stroke[i], stroke[i + 1], speed, /*pen_down=*/true,
                   cfg, rng, &t);
    }
    cursor = stroke.back();
    have_cursor = true;
  }
  return out;
}

std::vector<Stroke> place_glyph(const Glyph& glyph, Vec2 origin, double size_m) {
  std::vector<Stroke> placed;
  placed.reserve(glyph.strokes.size());
  for (const Stroke& s : glyph.strokes) {
    Stroke p;
    p.reserve(s.size());
    for (const Vec2& v : s) {
      p.push_back(origin + v * size_m);
    }
    placed.push_back(std::move(p));
  }
  return placed;
}

}  // namespace polardraw::handwriting
