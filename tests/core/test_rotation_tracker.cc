#include "core/rotation_tracker.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/angles.h"

namespace polardraw::core {
namespace {

PolarDrawConfig config() {
  PolarDrawConfig cfg;
  cfg.gamma_rad = deg2rad(15.0);
  cfg.alpha_e_rad = deg2rad(30.0);
  return cfg;
}

TEST(TrendClassification, Table3Rows) {
  RotationTracker tracker(config());
  // Sector 1, clockwise: both RSS rise, antenna 2 faster.
  auto d = tracker.classify_trend(1.0, 2.5);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->sector, Sector::kSector1);
  EXPECT_EQ(d->sense, RotationSense::kClockwise);
  // Sector 1, counter-clockwise: both fall, antenna 2 faster.
  d = tracker.classify_trend(-1.0, -2.5);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->sector, Sector::kSector1);
  EXPECT_EQ(d->sense, RotationSense::kCounterClockwise);
  // Sector 2, clockwise: antenna 1 falls, antenna 2 rises.
  d = tracker.classify_trend(-2.0, 2.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->sector, Sector::kSector2);
  EXPECT_EQ(d->sense, RotationSense::kClockwise);
  // Sector 2, counter-clockwise.
  d = tracker.classify_trend(2.0, -2.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->sector, Sector::kSector2);
  EXPECT_EQ(d->sense, RotationSense::kCounterClockwise);
  // Sector 3, clockwise: both fall, antenna 1 faster.
  d = tracker.classify_trend(-2.5, -1.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->sector, Sector::kSector3);
  EXPECT_EQ(d->sense, RotationSense::kClockwise);
  // Sector 3, counter-clockwise: both rise, antenna 1 faster.
  d = tracker.classify_trend(2.5, 1.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->sector, Sector::kSector3);
  EXPECT_EQ(d->sense, RotationSense::kCounterClockwise);
}

TEST(TrendClassification, FlatTrendsUndecodable) {
  RotationTracker tracker(config());
  EXPECT_FALSE(tracker.classify_trend(0.0, 0.0).has_value());
}

TEST(InitialAzimuth, Equation2Values) {
  const auto cfg = config();
  RotationTracker tracker(cfg);
  const double g = cfg.gamma_rad;
  using S = Sector;
  using R = RotationSense;
  EXPECT_NEAR(tracker.initial_azimuth(S::kSector1, R::kClockwise), kPi - g, 1e-12);
  EXPECT_NEAR(tracker.initial_azimuth(S::kSector2, R::kClockwise),
              kPi / 2.0 + g, 1e-12);
  EXPECT_NEAR(tracker.initial_azimuth(S::kSector3, R::kClockwise),
              kPi / 2.0 - g, 1e-12);
  EXPECT_NEAR(tracker.initial_azimuth(S::kSector1, R::kCounterClockwise),
              kPi / 2.0 + g, 1e-12);
  EXPECT_NEAR(tracker.initial_azimuth(S::kSector2, R::kCounterClockwise),
              kPi / 2.0 - g, 1e-12);
  EXPECT_NEAR(tracker.initial_azimuth(S::kSector3, R::kCounterClockwise), g,
              1e-12);
}

TEST(SectorOf, Boundaries) {
  const auto cfg = config();
  RotationTracker tracker(cfg);
  EXPECT_EQ(tracker.sector_of(deg2rad(30.0)), Sector::kSector3);
  EXPECT_EQ(tracker.sector_of(deg2rad(90.0)), Sector::kSector2);
  EXPECT_EQ(tracker.sector_of(deg2rad(130.0)), Sector::kSector1);
}

TEST(SenseInSector, InvertsTableThree) {
  using S = Sector;
  using R = RotationSense;
  EXPECT_EQ(RotationTracker::sense_in_sector(S::kSector1, 1.0, 2.0),
            R::kClockwise);
  EXPECT_EQ(RotationTracker::sense_in_sector(S::kSector1, -1.0, -2.0),
            R::kCounterClockwise);
  EXPECT_EQ(RotationTracker::sense_in_sector(S::kSector2, -1.0, 1.0),
            R::kClockwise);
  EXPECT_EQ(RotationTracker::sense_in_sector(S::kSector2, 1.0, -1.0),
            R::kCounterClockwise);
  EXPECT_EQ(RotationTracker::sense_in_sector(S::kSector3, -2.0, -1.0),
            R::kClockwise);
  EXPECT_EQ(RotationTracker::sense_in_sector(S::kSector3, 2.0, 1.0),
            R::kCounterClockwise);
  // Impossible pattern in sector 1 signals a crossing.
  EXPECT_EQ(RotationTracker::sense_in_sector(S::kSector1, -1.0, 1.0),
            R::kNone);
}

TEST(MotionDirection, ClockwiseMovesRight) {
  for (double ar : {deg2rad(60.0), deg2rad(90.0), deg2rad(120.0)}) {
    const Vec2 d =
        RotationTracker::motion_direction(ar, RotationSense::kClockwise);
    EXPECT_GT(d.x, 0.0) << "alpha_r " << rad2deg(ar);
    EXPECT_NEAR(d.norm(), 1.0, 1e-12);
  }
}

TEST(MotionDirection, CounterClockwiseMovesLeft) {
  for (double ar : {deg2rad(60.0), deg2rad(90.0), deg2rad(120.0)}) {
    const Vec2 d = RotationTracker::motion_direction(
        ar, RotationSense::kCounterClockwise);
    EXPECT_LT(d.x, 0.0);
  }
}

TEST(MotionDirection, PerpendicularToPenProjection) {
  const double ar = deg2rad(75.0);
  const Vec2 pen{std::cos(ar), std::sin(ar)};
  const Vec2 d = RotationTracker::motion_direction(ar, RotationSense::kClockwise);
  EXPECT_NEAR(d.dot(pen), 0.0, 1e-12);
}

TEST(RotationTracker, TracksClockwiseSweep) {
  RotationTracker tracker(config());
  // Bootstrap in sector 2 clockwise, then keep rotating clockwise.
  auto est = tracker.step(-2.0, 2.0);
  EXPECT_EQ(est.type, MotionType::kRotational);
  const double az0 = est.alpha_a_rad;
  for (int i = 0; i < 5; ++i) est = tracker.step(-2.0, 2.0);
  EXPECT_LT(est.alpha_a_rad, az0);
  EXPECT_EQ(est.sense, RotationSense::kClockwise);
}

TEST(RotationTracker, GateBlocksWeakSteps) {
  RotationTracker tracker(config());
  auto est = tracker.step(-2.0, 2.0);  // bootstrap
  const double az0 = est.alpha_a_rad;
  // Weak changes: sense decodes but the azimuth must not step.
  est = tracker.step(-0.1, 0.1);
  EXPECT_NEAR(est.alpha_a_rad, az0, 1e-12);
}

TEST(RotationTracker, FirstSectorCrossingSetsTheCorrection) {
  const auto cfg = config();
  RotationTracker tracker(cfg);
  // Bootstrap in sector 1 clockwise (seed at pi - gamma = 165 deg) and
  // rotate clockwise until the pattern flips to a sector-2 signature.
  tracker.step(1.0, 3.0);
  for (int i = 0; i < 4; ++i) tracker.step(1.0, 3.0);
  EXPECT_EQ(tracker.azimuth_correction_rad(), 0.0);
  // Sector-2 clockwise signature: ds1 < 0, ds2 > 0 -- impossible in
  // sector 1, so the tracker snaps to the boundary and records the error.
  tracker.step(-2.0, 2.0);
  const double correction = tracker.azimuth_correction_rad();
  EXPECT_NE(correction, 0.0);
  ASSERT_TRUE(tracker.azimuth().has_value());

  // Rotate on, clockwise, through sector 2 (105 -> 85 deg) and then with
  // sector 3's clockwise signature (both RSS falling) to 70 deg.
  for (int i = 0; i < 3; ++i) tracker.step(-2.0, 2.0);
  for (int i = 0; i < 3; ++i) tracker.step(-3.0, -1.0);
  ASSERT_EQ(tracker.sector_of(*tracker.azimuth()), Sector::kSector3);
  EXPECT_EQ(tracker.azimuth_correction_rad(), correction);
  // The sector-2 clockwise pattern is impossible in sector 3: a second
  // crossing. Too weak to step, so the azimuth stays where it re-snaps,
  // on the 2|3 boundary; the correction stays the first crossing's.
  tracker.step(-0.05, 0.05);
  EXPECT_EQ(*tracker.azimuth(), kPi / 2.0 - cfg.gamma_rad);
  EXPECT_EQ(tracker.azimuth_correction_rad(), correction);
}

TEST(RotationTracker, AzimuthClampedToSectorUnion) {
  const auto cfg = config();
  RotationTracker tracker(cfg);
  tracker.step(-3.0, -1.0);  // sector 3 clockwise, azimuth falling
  for (int i = 0; i < 20; ++i) tracker.step(-3.0, -1.0);
  ASSERT_TRUE(tracker.azimuth().has_value());
  EXPECT_GE(*tracker.azimuth(), cfg.gamma_rad - 1e-9);
}

TEST(RotateTrajectory, RotatesAboutCentroid) {
  const std::vector<Vec2> traj{{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}};
  const auto rotated =
      correct_initial_azimuth(PolarDrawConfig{}, traj, kPi / 2.0);
  ASSERT_EQ(rotated.size(), 3u);
  // Centroid (1, 0) is fixed; endpoints rotate -90 degrees around it.
  EXPECT_NEAR(rotated[1].x, 1.0, 1e-9);
  EXPECT_NEAR(rotated[1].y, 0.0, 1e-9);
  EXPECT_NEAR(rotated[0].x, 1.0, 1e-9);
  EXPECT_NEAR(rotated[0].y, 1.0, 1e-9);
}

TEST(RotateTrajectory, ZeroAngleIdentity) {
  // Below the 1e-9 rad gate the trajectory comes back bit for bit.
  const std::vector<Vec2> traj{{0.3, 0.4}, {0.5, 0.1}};
  for (const double alpha_rad : {0.0, 1e-10, -1e-9}) {
    const auto r = correct_initial_azimuth(PolarDrawConfig{}, traj, alpha_rad);
    ASSERT_EQ(r.size(), traj.size());
    for (std::size_t i = 0; i < traj.size(); ++i) {
      EXPECT_EQ(r[i].x, traj[i].x) << alpha_rad;
      EXPECT_EQ(r[i].y, traj[i].y) << alpha_rad;
    }
  }
}

}  // namespace
}  // namespace polardraw::core
