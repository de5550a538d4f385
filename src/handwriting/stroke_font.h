// Vector stroke font for A-Z.
//
// Each glyph is a set of polyline strokes in a unit box (x right, y up,
// both in [0, 1]). The synthesizer scales glyphs to the requested writing
// size (the paper uses ~20 cm letters) and threads a kinematic pen model
// through the strokes. Glyph shapes are hand-designed for this project to
// resemble natural single- and multi-stroke handwriting; letters that share
// a writing style (e.g. L/I, V/U) are deliberately similar, since the
// paper's confusion matrix attributes most recognition errors to such pairs.
#pragma once

#include <string>
#include <vector>

#include "common/vec.h"

namespace polardraw::handwriting {

using Stroke = std::vector<Vec2>;

struct Glyph {
  char letter = '?';
  std::vector<Stroke> strokes;
  /// Horizontal advance to the next letter, in glyph units.
  double advance = 1.2;
};

/// Returns the glyph for an uppercase letter A-Z. Throws std::out_of_range
/// for unsupported characters.
const Glyph& glyph_for(char letter);

/// True when `letter` (after upper-casing) has a glyph.
bool has_glyph(char letter);

/// All 26 supported letters in order.
const std::string& alphabet();

/// Number of strokes (pen lifts + 1) in the glyph.
std::size_t glyph_stroke_count(const Glyph& g);

}  // namespace polardraw::handwriting
