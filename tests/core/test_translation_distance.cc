#include <gtest/gtest.h>

#include "common/angles.h"
#include "core/distance_estimator.h"
#include "core/translation_tracker.h"

namespace polardraw::core {
namespace {

TEST(TranslationDecode, Table4Rows) {
  using B = BoardDirection;
  // Antennas above the board: approaching them (moving up) shortens both
  // links, so both phases fall.
  EXPECT_EQ(TranslationTracker::decode(-0.2, -0.2), B::kUp);
  EXPECT_EQ(TranslationTracker::decode(0.2, 0.2), B::kDown);
  // Moving left: closer to antenna 1, farther from antenna 2.
  EXPECT_EQ(TranslationTracker::decode(-0.2, 0.2), B::kLeft);
  EXPECT_EQ(TranslationTracker::decode(0.2, -0.2), B::kRight);
}

TEST(TranslationDecode, DominantComponentWins) {
  using B = BoardDirection;
  // Mostly common-mode: vertical.
  EXPECT_EQ(TranslationTracker::decode(-0.3, -0.1), B::kUp);
  // Mostly differential: horizontal.
  EXPECT_EQ(TranslationTracker::decode(-0.3, 0.25), B::kLeft);
}

TEST(TranslationDecode, StaticPenIsNone) {
  EXPECT_EQ(TranslationTracker::decode(0.0, 0.0), BoardDirection::kNone);
  EXPECT_EQ(TranslationTracker::decode(5e-5, -5e-5), BoardDirection::kNone);
}

TEST(TranslationTracker, EstimateCarriesUnitDirection) {
  PolarDrawConfig cfg;
  TranslationTracker tracker(cfg);
  const auto est = tracker.step(-0.2, -0.2);
  EXPECT_EQ(est.type, MotionType::kTranslational);
  EXPECT_EQ(est.direction, to_vector(BoardDirection::kUp));
  const auto idle = tracker.step(0.0, 0.0);
  EXPECT_EQ(idle.type, MotionType::kIdle);
}

TEST(DirectionVectors, AllFourAxes) {
  EXPECT_EQ(to_vector(BoardDirection::kUp), Vec2(0, 1));
  EXPECT_EQ(to_vector(BoardDirection::kDown), Vec2(0, -1));
  EXPECT_EQ(to_vector(BoardDirection::kLeft), Vec2(-1, 0));
  EXPECT_EQ(to_vector(BoardDirection::kRight), Vec2(1, 0));
  EXPECT_EQ(to_vector(BoardDirection::kNone), Vec2());
}

class DistanceTest : public ::testing::Test {
 protected:
  DistanceTest() : est_(cfg_) {}
  PolarDrawConfig cfg_;
  DistanceEstimator est_{cfg_};
};

TEST_F(DistanceTest, LinkDeltaEquation5) {
  // Delta-l = Delta-theta * lambda / (4*pi): a full 2*pi of phase is half
  // a wavelength of distance.
  EXPECT_NEAR(est_.link_delta(kTwoPi), cfg_.wavelength_m / 2.0, 1e-12);
  EXPECT_NEAR(est_.link_delta(-kPi), -cfg_.wavelength_m / 4.0, 1e-12);
  EXPECT_EQ(est_.link_delta(0.0), 0.0);
}

TEST_F(DistanceTest, BoundsFromBothAntennas) {
  const auto e = est_.estimate(0.1, -0.25, 5.0, 7.0);
  EXPECT_NEAR(e.lower_m, est_.link_delta(0.25), 1e-12);
  EXPECT_NEAR(e.upper_m, cfg_.vmax_mps * cfg_.window_s, 1e-12);
  EXPECT_TRUE(e.valid);
  EXPECT_NEAR(e.dtheta21, 2.0, 1e-12);
}

TEST_F(DistanceTest, InconsistentBoundsFlagged) {
  // A phase delta implying more movement than vmax allows is invalid
  // (residual spurious reading).
  const auto e = est_.estimate(3.0, 0.0, 0.0, 0.0);
  EXPECT_GT(e.lower_m, e.upper_m);
  EXPECT_FALSE(e.valid);
}

TEST_F(DistanceTest, ExpectedDthetaOnPerpendicularBisector) {
  // Equidistant from both antennas: l2 - l1 = 0 -> expected difference 0.
  const Vec2 a1{0.2, 1.0}, a2{0.8, 1.0};
  const double d = est_.expected_dtheta21(Vec2{0.5, 0.3}, a1, a2, 0.1);
  EXPECT_NEAR(d, 0.0, 1e-9);
}

TEST_F(DistanceTest, ExpectedDthetaMatchesGeometry) {
  const Vec2 a1{0.2, 1.0}, a2{0.8, 1.0};
  const Vec2 p{0.3, 0.2};
  const double z = 0.12;
  const double l1 = std::sqrt((p - a1).norm_sq() + z * z);
  const double l2 = std::sqrt((p - a2).norm_sq() + z * z);
  const double expect = wrap_2pi(4.0 * kPi * (l2 - l1) / cfg_.wavelength_m);
  EXPECT_NEAR(est_.expected_dtheta21(p, a1, a2, z), expect, 1e-12);
}

TEST_F(DistanceTest, HyperbolaFieldVariesAcrossBoard) {
  // The inter-antenna phase difference field must change laterally (that
  // gradient is what anchors the HMM).
  const Vec2 a1{0.2, 1.0}, a2{0.8, 1.0};
  const double left = est_.expected_dtheta21(Vec2{0.3, 0.25}, a1, a2, 0.1);
  const double right = est_.expected_dtheta21(Vec2{0.7, 0.25}, a1, a2, 0.1);
  EXPECT_GT(angle_dist(left, right), 0.5);
}

}  // namespace
}  // namespace polardraw::core
