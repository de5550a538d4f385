#include "handwriting/kinematics.h"

#include <gtest/gtest.h>

#include "handwriting/stroke_font.h"

namespace polardraw::handwriting {
namespace {

TEST(PlaceGlyph, ScalesAndTranslates) {
  const Glyph& g = glyph_for('L');
  const auto placed = place_glyph(g, Vec2{0.3, 0.1}, 0.2);
  ASSERT_EQ(placed.size(), g.strokes.size());
  for (std::size_t si = 0; si < placed.size(); ++si) {
    for (std::size_t pi = 0; pi < placed[si].size(); ++pi) {
      const Vec2 expect = Vec2{0.3, 0.1} + g.strokes[si][pi] * 0.2;
      EXPECT_NEAR(placed[si][pi].x, expect.x, 1e-12);
      EXPECT_NEAR(placed[si][pi].y, expect.y, 1e-12);
    }
  }
}

class PathTest : public ::testing::Test {
 protected:
  KinematicsConfig cfg_;
  Rng rng_{42};
};

TEST_F(PathTest, TimeMonotone) {
  const auto path = sample_path(
      place_glyph(glyph_for('W'), {0.2, 0.1}, 0.2), cfg_, rng_);
  ASSERT_GT(path.size(), 10u);
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_GT(path[i].t_s, path[i - 1].t_s);
  }
}

TEST_F(PathTest, SpeedBounded) {
  const auto path = sample_path(
      place_glyph(glyph_for('Z'), {0.2, 0.1}, 0.2), cfg_, rng_);
  for (std::size_t i = 1; i < path.size(); ++i) {
    const double dt = path[i].t_s - path[i - 1].t_s;
    const double speed = path[i].pos.dist(path[i - 1].pos) / dt;
    // Cruise + jitter margin; transits are faster.
    EXPECT_LT(speed, kTransitSpeed * 2.5) << "at sample " << i;
  }
}

TEST_F(PathTest, VisitsAllStrokeEndpoints) {
  const auto strokes = place_glyph(glyph_for('H'), {0.3, 0.1}, 0.2);
  const auto path = sample_path(strokes, cfg_, rng_);
  for (const Stroke& s : strokes) {
    for (const Vec2& target : {s.front(), s.back()}) {
      double best = 1e9;
      for (const auto& p : path) best = std::min(best, p.pos.dist(target));
      EXPECT_LT(best, 0.002) << "endpoint (" << target.x << "," << target.y
                             << ")";
    }
  }
}

TEST_F(PathTest, PenUpOnlyBetweenStrokes) {
  const auto strokes = place_glyph(glyph_for('T'), {0.3, 0.1}, 0.2);
  const auto path = sample_path(strokes, cfg_, rng_);
  // There must be some pen-up samples (T has two strokes) and pen-down
  // samples must dominate.
  int down = 0, up = 0;
  for (const auto& p : path) (p.pen_down ? down : up)++;
  EXPECT_GT(up, 0);
  EXPECT_GT(down, up);
}

TEST_F(PathTest, InitialDwellEmitsStationarySamples) {
  const auto strokes = place_glyph(glyph_for('I'), {0.3, 0.1}, 0.2);
  const auto path = sample_path(strokes, cfg_, rng_);
  // Count leading samples at the first stroke start.
  const Vec2 start = strokes.front().front();
  int stationary = 0;
  for (const auto& p : path) {
    if (p.pos.dist(start) < 1e-9) {
      ++stationary;
    } else if (stationary > 0) {
      break;
    }
  }
  EXPECT_GE(stationary, static_cast<int>(kInitialDwellS / kSampleDt) - 2);
}

TEST_F(PathTest, EmptyStrokesProduceEmptyPath) {
  EXPECT_TRUE(sample_path({}, cfg_, rng_).empty());
  EXPECT_TRUE(sample_path({Stroke{{0.1, 0.1}}}, cfg_, rng_).empty());
}

TEST_F(PathTest, CornerSlowdownReducesSpeed) {
  // A hairpin stroke must contain slower samples than a straight one.
  Stroke straight{{0.0, 0.0}, {0.2, 0.0}};
  Stroke hairpin{{0.0, 0.0}, {0.1, 0.0}, {0.0, 0.001}};
  cfg_.speed_jitter = 0.0;
  Rng r1(1), r2(1);
  const auto p_straight = sample_path({straight}, cfg_, r1);
  const auto p_hairpin = sample_path({hairpin}, cfg_, r2);
  auto min_speed = [&](const std::vector<PathSample>& p) {
    double v = 1e9;
    for (const auto& s : p) {
      if (s.pen_down && s.velocity.norm() > 0.0) {
        v = std::min(v, s.velocity.norm());
      }
    }
    return v;
  };
  EXPECT_LT(min_speed(p_hairpin), min_speed(p_straight) * 0.8);
}

}  // namespace
}  // namespace polardraw::handwriting
