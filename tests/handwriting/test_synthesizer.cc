#include "handwriting/synthesizer.h"

#include <gtest/gtest.h>

#include "common/angles.h"

namespace polardraw::handwriting {
namespace {

TEST(Synthesizer, SingleLetterTrace) {
  SynthesisConfig cfg;
  Rng rng(5);
  const auto trace = synthesize("A", cfg, rng);
  EXPECT_EQ(trace.text, "A");
  EXPECT_GT(trace.samples.size(), 100u);
  EXPECT_GT(trace.duration_s, 1.0);
  EXPECT_FALSE(trace.ground_truth.empty());
}

TEST(Synthesizer, SkipsUnknownCharacters) {
  SynthesisConfig cfg;
  Rng rng(5);
  const auto trace = synthesize("A1B!", cfg, rng);
  // Two letters worth of ground-truth strokes.
  std::size_t strokes = 0;
  strokes += glyph_stroke_count(glyph_for('A'));
  strokes += glyph_stroke_count(glyph_for('B'));
  EXPECT_EQ(trace.ground_truth.size(), strokes);
}

TEST(Synthesizer, EmptyTextEmptyTrace) {
  SynthesisConfig cfg;
  Rng rng(1);
  const auto trace = synthesize("", cfg, rng);
  EXPECT_TRUE(trace.samples.empty());
  EXPECT_TRUE(trace.ground_truth.empty());
}

TEST(Synthesizer, AutoCenterPutsTextUnderRig) {
  SynthesisConfig cfg;
  cfg.auto_center = true;
  Rng rng(5);
  const auto trace = synthesize("O", cfg, rng);
  double xmin = 1e9, xmax = -1e9;
  for (const auto& s : trace.ground_truth) {
    for (const auto& p : s) {
      xmin = std::min(xmin, p.x);
      xmax = std::max(xmax, p.x);
    }
  }
  EXPECT_NEAR((xmin + xmax) / 2.0, 0.5, 0.05);
}

TEST(Synthesizer, LongWordShrinksToFit) {
  SynthesisConfig cfg;
  cfg.auto_center = true;
  Rng rng(5);
  const auto trace = synthesize("WWWWW", cfg, rng);
  double xmin = 1e9, xmax = -1e9;
  for (const auto& s : trace.ground_truth) {
    for (const auto& p : s) {
      xmin = std::min(xmin, p.x);
      xmax = std::max(xmax, p.x);
    }
  }
  EXPECT_LE(xmax - xmin, 0.85);
  EXPECT_GE(xmin, 0.0);
}

TEST(Synthesizer, OnBoardStaysPlanar) {
  SynthesisConfig cfg;
  cfg.in_air = false;
  Rng rng(5);
  const auto trace = synthesize("S", cfg, rng);
  for (const auto& s : trace.samples) {
    EXPECT_EQ(s.pen_tip.z, 0.0);
  }
}

TEST(Synthesizer, InAirWandersOutOfPlane) {
  SynthesisConfig cfg;
  cfg.in_air = true;
  Rng rng(5);
  const auto trace = synthesize("S", cfg, rng);
  double max_abs_z = 0.0;
  for (const auto& s : trace.samples) {
    max_abs_z = std::max(max_abs_z, std::fabs(s.pen_tip.z));
  }
  EXPECT_GT(max_abs_z, 0.005);
}

TEST(Synthesizer, TagRidesTheBarrel) {
  SynthesisConfig cfg;
  cfg.tag_offset_m = 0.05;
  Rng rng(5);
  const auto trace = synthesize("I", cfg, rng);
  for (const auto& s : trace.samples) {
    EXPECT_NEAR(s.tag_pos.dist(s.pen_tip), 0.05, 1e-9);
    // With positive elevation the tag sits above and out of the board.
    EXPECT_GT(s.tag_pos.z, s.pen_tip.z);
  }
}

TEST(Synthesizer, DeterministicGivenSeed) {
  SynthesisConfig cfg;
  Rng a(9), b(9);
  const auto ta = synthesize("K", cfg, a);
  const auto tb = synthesize("K", cfg, b);
  ASSERT_EQ(ta.samples.size(), tb.samples.size());
  for (std::size_t i = 0; i < ta.samples.size(); i += 17) {
    EXPECT_EQ(ta.samples[i].pen_tip, tb.samples[i].pen_tip);
    EXPECT_EQ(ta.samples[i].angles.azimuth_rad, tb.samples[i].angles.azimuth_rad);
  }
}

TEST(Synthesizer, DifferentSeedsDiffer) {
  SynthesisConfig cfg;
  Rng a(9), b(10);
  const auto ta = synthesize("K", cfg, a);
  const auto tb = synthesize("K", cfg, b);
  bool any_diff = ta.samples.size() != tb.samples.size();
  for (std::size_t i = 0; !any_diff && i < ta.samples.size(); ++i) {
    any_diff = !(ta.samples[i].pen_tip == tb.samples[i].pen_tip);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Synthesizer, InkPolylineOnlyPenDown) {
  SynthesisConfig cfg;
  Rng rng(3);
  const auto trace = synthesize("T", cfg, rng);
  const auto ink = trace_ink_polyline(trace);
  std::size_t down = 0;
  for (const auto& s : trace.samples) down += s.pen_down ? 1 : 0;
  EXPECT_EQ(ink.size(), down);
}

TEST(Synthesizer, FlattenStrokesConcatenates) {
  const std::vector<Stroke> strokes{{{0, 0}, {1, 0}}, {{2, 2}, {3, 3}}};
  const auto flat = flatten_strokes(strokes);
  ASSERT_EQ(flat.size(), 4u);
  EXPECT_EQ(flat[0], Vec2(0, 0));
  EXPECT_EQ(flat[3], Vec2(3, 3));
}

TEST(Synthesizer, WordWiderThanLetter) {
  SynthesisConfig cfg;
  Rng a(1), b(1);
  auto width = [](const WritingTrace& t) {
    double xmin = 1e9, xmax = -1e9;
    for (const auto& s : t.ground_truth) {
      for (const auto& p : s) {
        xmin = std::min(xmin, p.x);
        xmax = std::max(xmax, p.x);
      }
    }
    return xmax - xmin;
  };
  EXPECT_GT(width(synthesize("HI", cfg, a)), width(synthesize("I", cfg, b)));
}

}  // namespace
}  // namespace polardraw::handwriting
