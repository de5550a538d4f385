// Writing-trace synthesizer: the top of the handwriting substrate.
//
// Produces a full ground-truth trace for a letter or word: pen-tip position
// in 3-D (board plane plus out-of-plane wobble for in-air writing) and pen
// orientation over time, plus the ideal ink polyline used as ground truth
// by the evaluation (standing in for the paper's photograph-and-edge-detect
// ground-truth pipeline).
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/vec.h"
#include "em/tag.h"
#include "handwriting/kinematics.h"
#include "handwriting/user.h"
#include "handwriting/wrist.h"

namespace polardraw::handwriting {

/// One fully-specified instant of the synthesized writing.
struct TraceSample {
  double t_s = 0.0;
  Vec3 pen_tip;          // meters, board coords (z = 0 on the whiteboard)
  Vec3 tag_pos;          // tag center: up the barrel from the tip
  em::PenAngles angles;  // pen orientation
  bool pen_down = true;
};

/// A complete synthesized writing session for one letter/word.
struct WritingTrace {
  std::string text;
  std::vector<TraceSample> samples;
  /// Ideal ink polyline (pen-down segments), the recognition ground truth.
  std::vector<Stroke> ground_truth;
  double duration_s = 0.0;
};

/// SynthesisConfig::auto_center's text center and widest word, meters.
inline constexpr double kBoardCenterXM = 0.5;
inline constexpr double kMaxWidthM = 0.8;
/// SynthesisConfig::in_air's random walks, meters.
inline constexpr double kAirDepthWanderM = 0.03;  // z drift std over a letter
inline constexpr double kAirPlaneDriftM = 0.015;  // in-plane frame drift

struct SynthesisConfig {
  UserStyle user = user_style(1);
  double letter_size_m = 0.20;  // the paper writes ~20 cm letters
  Vec2 origin{0.20, 0.15};      // lower-left of the first letter, meters

  /// Center the text horizontally in the writing block under the antenna
  /// rig (the paper's Fig. 17 writing block sits between the antennas),
  /// shrinking the letter size if a long word would not fit the board.
  bool auto_center = true;

  /// Distance from the pen tip to the tag center along the barrel,
  /// meters. The tag is taped partway up the pen, so wrist rotation
  /// physically swings the tag even when the tip barely moves -- the
  /// radios track the tag, not the tip.
  double tag_offset_m = 0.03;

  /// In-air mode: no board constrains the pen, so the trajectory wanders
  /// out of plane and the letter frame drifts (paper section 5.2.3).
  bool in_air = false;
};

/// Synthesizes one word (or single letter) of writing.
/// Only characters with glyphs are drawn; others are skipped.
WritingTrace synthesize(const std::string& text, const SynthesisConfig& cfg,
                        Rng& rng);

/// Flattens a trace's pen-down samples into one polyline (for plotting
/// and Procrustes comparison against recovered trajectories).
Stroke trace_ink_polyline(const WritingTrace& trace);

/// Flattens ground-truth strokes into a single polyline.
Stroke flatten_strokes(const std::vector<Stroke>& strokes);

}  // namespace polardraw::handwriting
