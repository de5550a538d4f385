#include "handwriting/synthesizer.h"

#include <cmath>

#include "common/angles.h"
#include "handwriting/stroke_font.h"

namespace polardraw::handwriting {

namespace {

/// Applies the per-letter shape wobble: a small random slant + scale.
std::vector<Stroke> wobble_strokes(const std::vector<Stroke>& strokes,
                                   Vec2 pivot, double wobble, Rng& rng) {
  const double slant = rng.gaussian(0.0, wobble * 0.5);   // radians
  const double scale = 1.0 + rng.gaussian(0.0, wobble);
  std::vector<Stroke> out;
  out.reserve(strokes.size());
  for (const Stroke& s : strokes) {
    Stroke w;
    w.reserve(s.size());
    for (const Vec2& v : s) {
      Vec2 d = (v - pivot) * scale;
      // Shear in x by the slant angle (italic-style wobble).
      d.x += d.y * std::tan(slant);
      w.push_back(pivot + d);
    }
    out.push_back(std::move(w));
  }
  return out;
}

}  // namespace

WritingTrace synthesize(const std::string& text, const SynthesisConfig& cfg,
                        Rng& rng) {
  WritingTrace trace;
  trace.text = text;

  // Lay out the glyph strokes left to right, centered under the rig.
  double advance_units = 0.0;
  for (char c : text) {
    if (has_glyph(c)) advance_units += glyph_for(c).advance;
  }
  double size = cfg.letter_size_m;
  Vec2 origin = cfg.origin;
  if (cfg.auto_center && advance_units > 0.0) {
    if (advance_units * size > kMaxWidthM) {
      size = kMaxWidthM / advance_units;  // shrink long words to fit
    }
    origin.x = kBoardCenterXM - advance_units * size / 2.0;
  }

  std::vector<Stroke> all_strokes;
  Vec2 cursor = origin;
  for (char c : text) {
    if (!has_glyph(c)) continue;
    const Glyph& g = glyph_for(c);
    auto placed = place_glyph(g, cursor, size);
    placed = wobble_strokes(placed, cursor, cfg.user.shape_wobble, rng);
    for (auto& s : placed) all_strokes.push_back(std::move(s));
    cursor.x += g.advance * size;
  }
  trace.ground_truth = all_strokes;
  if (all_strokes.empty()) return trace;

  // Time-sample the pen path and thread the wrist model through it.
  Rng path_rng = rng.fork();
  const auto path = sample_path(all_strokes, cfg.user.kinematics, path_rng);
  WristModel wrist(cfg.user.wrist, rng.fork());

  // In-air drift accumulators (random walk, slow).
  Rng air_rng = rng.fork();
  double z_drift = 0.0;
  Vec2 plane_drift;

  trace.samples.reserve(path.size());
  for (const PathSample& p : path) {
    TraceSample s;
    s.t_s = p.t_s;
    s.pen_down = p.pen_down;
    s.angles = wrist.step(p);

    Vec2 xy = p.pos;
    double z = 0.0;
    if (cfg.in_air) {
      z_drift += air_rng.gaussian(0.0, kAirDepthWanderM * std::sqrt(kSampleDt));
      plane_drift.x +=
          air_rng.gaussian(0.0, kAirPlaneDriftM * std::sqrt(kSampleDt));
      plane_drift.y +=
          air_rng.gaussian(0.0, kAirPlaneDriftM * std::sqrt(kSampleDt));
      xy += plane_drift;
      z = z_drift;
    }
    s.pen_tip = Vec3{xy, z};
    s.tag_pos = s.pen_tip + em::pen_axis(s.angles) * cfg.tag_offset_m;
    trace.samples.push_back(s);
  }
  trace.duration_s =
      trace.samples.empty() ? 0.0 : trace.samples.back().t_s;
  return trace;
}

Stroke trace_ink_polyline(const WritingTrace& trace) {
  Stroke out;
  out.reserve(trace.samples.size());
  for (const TraceSample& s : trace.samples) {
    if (s.pen_down) out.push_back(s.pen_tip.xy());
  }
  return out;
}

Stroke flatten_strokes(const std::vector<Stroke>& strokes) {
  Stroke out;
  for (const Stroke& s : strokes) {
    out.insert(out.end(), s.begin(), s.end());
  }
  return out;
}

}  // namespace polardraw::handwriting
