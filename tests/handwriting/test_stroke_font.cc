#include "handwriting/stroke_font.h"

#include <gtest/gtest.h>

namespace polardraw::handwriting {
namespace {

TEST(StrokeFont, AllLettersPresent) {
  for (char c : alphabet()) {
    EXPECT_TRUE(has_glyph(c)) << c;
    EXPECT_NO_THROW(glyph_for(c));
  }
  EXPECT_EQ(alphabet().size(), 26u);
}

TEST(StrokeFont, LowercaseAliases) {
  EXPECT_TRUE(has_glyph('a'));
  EXPECT_EQ(glyph_for('a').letter, 'A');
}

TEST(StrokeFont, UnknownCharacterThrows) {
  EXPECT_FALSE(has_glyph('1'));
  EXPECT_FALSE(has_glyph(' '));
  EXPECT_THROW(glyph_for('!'), std::out_of_range);
}

TEST(StrokeFont, GlyphsLiveInUnitBox) {
  for (char c : alphabet()) {
    const Glyph& g = glyph_for(c);
    for (const Stroke& s : g.strokes) {
      for (const Vec2& p : s) {
        EXPECT_GE(p.x, -0.2) << c;
        EXPECT_LE(p.x, 1.2) << c;
        EXPECT_GE(p.y, -0.2) << c;
        EXPECT_LE(p.y, 1.2) << c;
      }
    }
  }
}

TEST(StrokeFont, EveryStrokeDrawable) {
  for (char c : alphabet()) {
    const Glyph& g = glyph_for(c);
    EXPECT_GE(g.strokes.size(), 1u) << c;
    for (const Stroke& s : g.strokes) {
      EXPECT_GE(s.size(), 2u) << c;
    }
  }
}

TEST(StrokeFont, SingleStrokeLettersAreSingleStroke) {
  for (char c : std::string("CGIJLMNOSUVWZ")) {
    EXPECT_EQ(glyph_stroke_count(glyph_for(c)), 1u) << c;
  }
}

TEST(StrokeFont, MultiStrokeLettersHaveSeveral) {
  for (char c : std::string("AEFHKTXY")) {
    EXPECT_GE(glyph_stroke_count(glyph_for(c)), 2u) << c;
  }
}

TEST(StrokeFont, AdvancePositive) {
  for (char c : alphabet()) {
    EXPECT_GT(glyph_for(c).advance, 0.3) << c;
    EXPECT_LT(glyph_for(c).advance, 2.0) << c;
  }
}

}  // namespace
}  // namespace polardraw::handwriting
