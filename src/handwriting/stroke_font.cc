#include "handwriting/stroke_font.h"

#include <array>
#include <cctype>
#include <cmath>
#include <map>
#include <stdexcept>

#include "common/angles.h"

namespace polardraw::handwriting {

namespace {

/// Samples a circular arc as a polyline. Angles in degrees, measured from
/// +X, counter-clockwise positive; `a0` to `a1` traversed in order.
Stroke arc(Vec2 center, double rx, double ry, double a0_deg, double a1_deg,
           int segments = 10) {
  Stroke s;
  s.reserve(static_cast<std::size_t>(segments) + 1);
  for (int i = 0; i <= segments; ++i) {
    const double a =
        deg2rad(a0_deg + (a1_deg - a0_deg) * static_cast<double>(i) / segments);
    s.push_back({center.x + rx * std::cos(a), center.y + ry * std::sin(a)});
  }
  return s;
}

/// Concatenates polylines into one continuous stroke (dropping duplicated
/// joints).
Stroke join(std::initializer_list<Stroke> parts) {
  Stroke out;
  for (const Stroke& p : parts) {
    for (const Vec2& v : p) {
      if (!out.empty() && out.back().dist(v) < 1e-9) continue;
      out.push_back(v);
    }
  }
  return out;
}

std::map<char, Glyph> build_font() {
  std::map<char, Glyph> f;
  auto add = [&](char c, std::vector<Stroke> strokes, double advance = 1.2) {
    f[c] = Glyph{c, std::move(strokes), advance};
  };

  // Glyphs live in the unit box, y up. Stroke order follows common
  // handwriting order (top-to-bottom, left-to-right strokes first).
  add('A', {{{0.0, 0.0}, {0.5, 1.0}, {1.0, 0.0}},
            {{0.2, 0.4}, {0.8, 0.4}}});
  add('B', {{{0.0, 0.0}, {0.0, 1.0}},
            join({{{0.0, 1.0}}, arc({0.0, 0.75}, 0.55, 0.25, 90, -90),
                  {{0.0, 0.5}}, arc({0.0, 0.25}, 0.65, 0.25, 90, -90),
                  {{0.0, 0.0}}})});
  add('C', {arc({0.55, 0.5}, 0.5, 0.5, 60, 300)});
  add('D', {{{0.0, 0.0}, {0.0, 1.0}},
            join({{{0.0, 1.0}}, arc({0.0, 0.5}, 0.85, 0.5, 90, -90),
                  {{0.0, 0.0}}})});
  add('E', {{{0.9, 1.0}, {0.0, 1.0}, {0.0, 0.0}, {0.9, 0.0}},
            {{0.0, 0.5}, {0.7, 0.5}}});
  add('F', {{{0.9, 1.0}, {0.0, 1.0}, {0.0, 0.0}},
            {{0.0, 0.5}, {0.7, 0.5}}});
  add('G', {join({arc({0.55, 0.5}, 0.5, 0.5, 60, 300),
                  {{1.05, 0.25}, {1.0, 0.45}, {0.6, 0.45}}})});
  add('H', {{{0.0, 1.0}, {0.0, 0.0}},
            {{1.0, 1.0}, {1.0, 0.0}},
            {{0.0, 0.5}, {1.0, 0.5}}});
  add('I', {{{0.5, 1.0}, {0.5, 0.0}}}, 0.7);
  add('J', {join({{{0.7, 1.0}, {0.7, 0.25}},
                  arc({0.45, 0.25}, 0.25, 0.25, 0, -180)})},
      1.0);
  add('K', {{{0.0, 1.0}, {0.0, 0.0}},
            {{0.9, 1.0}, {0.0, 0.45}, {0.9, 0.0}}});
  add('L', {{{0.0, 1.0}, {0.0, 0.0}, {0.85, 0.0}}}, 1.0);
  add('M', {{{0.0, 0.0}, {0.05, 1.0}, {0.5, 0.25}, {0.95, 1.0}, {1.0, 0.0}}},
      1.3);
  add('N', {{{0.0, 0.0}, {0.0, 1.0}, {1.0, 0.0}, {1.0, 1.0}}});
  add('O', {arc({0.5, 0.5}, 0.5, 0.5, 90, 450)});
  add('P', {{{0.0, 0.0}, {0.0, 1.0}},
            join({{{0.0, 1.0}}, arc({0.0, 0.72}, 0.6, 0.28, 90, -90),
                  {{0.0, 0.44}}})});
  add('Q', {arc({0.5, 0.5}, 0.5, 0.5, 90, 450),
            {{0.6, 0.3}, {1.05, -0.1}}});
  add('R', {{{0.0, 0.0}, {0.0, 1.0}},
            join({{{0.0, 1.0}}, arc({0.0, 0.72}, 0.6, 0.28, 90, -90),
                  {{0.0, 0.44}}}),
            {{0.25, 0.44}, {0.9, 0.0}}});
  add('S', {join({arc({0.5, 0.75}, 0.42, 0.25, 60, 270),
                  arc({0.5, 0.25}, 0.42, 0.25, 90, -120)})},
      1.1);
  add('T', {{{0.0, 1.0}, {1.0, 1.0}},
            {{0.5, 1.0}, {0.5, 0.0}}});
  add('U', {join({{{0.0, 1.0}, {0.0, 0.3}},
                  arc({0.5, 0.3}, 0.5, 0.3, 180, 360),
                  {{1.0, 1.0}}})});
  add('V', {{{0.0, 1.0}, {0.5, 0.0}, {1.0, 1.0}}});
  add('W', {{{0.0, 1.0}, {0.25, 0.0}, {0.5, 0.75}, {0.75, 0.0}, {1.0, 1.0}}},
      1.35);
  add('X', {{{0.0, 1.0}, {1.0, 0.0}},
            {{1.0, 1.0}, {0.0, 0.0}}});
  add('Y', {{{0.0, 1.0}, {0.5, 0.45}, {1.0, 1.0}},
            {{0.5, 0.45}, {0.5, 0.0}}});
  add('Z', {{{0.0, 1.0}, {1.0, 1.0}, {0.0, 0.0}, {1.0, 0.0}}});
  return f;
}

const std::map<char, Glyph>& font() {
  static const std::map<char, Glyph> f = build_font();
  return f;
}

}  // namespace

const Glyph& glyph_for(char letter) {
  const char upper = static_cast<char>(std::toupper(static_cast<unsigned char>(letter)));
  const auto it = font().find(upper);
  if (it == font().end()) {
    throw std::out_of_range(std::string("no glyph for character '") + letter + "'");
  }
  return it->second;
}

bool has_glyph(char letter) {
  const char upper = static_cast<char>(std::toupper(static_cast<unsigned char>(letter)));
  return font().count(upper) > 0;
}

const std::string& alphabet() {
  static const std::string a = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
  return a;
}

std::size_t glyph_stroke_count(const Glyph& g) { return g.strokes.size(); }

}  // namespace polardraw::handwriting
