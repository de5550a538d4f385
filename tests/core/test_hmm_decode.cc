// Behaviour of the batch HMM decode (section 3.5): decode_full_lag runs
// the streaming decoder over a whole sequence at full lag, on small
// hand-built observation streams.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/angles.h"
#include "core/distance_estimator.h"
#include "core/phase_field.h"
#include "core/streaming_decoder.h"

namespace polardraw::core {
namespace {

PolarDrawConfig small_config() {
  PolarDrawConfig cfg;
  cfg.board_width_m = 0.4;
  cfg.board_height_m = 0.3;
  cfg.block_m = 0.01;
  cfg.beam_width = 200;
  cfg.warmup_windows = 0;
  return cfg;
}

class HmmTest : public ::testing::Test {
 protected:
  HmmTest()
      : cfg_(small_config()),
        a1_{0.1, 0.35},
        a2_{0.3, 0.35},
        field_(std::make_shared<const PhaseField>(cfg_, a1_, a2_, 0.12)) {}

  std::vector<Vec2> decode(const std::vector<TrackObservation>& obs,
                           const Vec2* hint = nullptr) const {
    return decode_full_lag(cfg_, a1_, a2_, 0.12, obs, hint, field_);
  }

  /// Builds an observation that moves the pen `step` meters along `dir`.
  TrackObservation move(Vec2 dir, double step) const {
    TrackObservation o;
    o.direction.type = MotionType::kTranslational;
    o.direction.direction = dir.normalized();
    o.distance.lower_m = step * 0.9;
    o.distance.upper_m = cfg_.vmax_mps * cfg_.window_s;
    o.distance.valid = true;
    o.has_phase = false;  // direction/annulus only for these unit tests
    return o;
  }

  PolarDrawConfig cfg_;
  Vec2 a1_, a2_;
  std::shared_ptr<const PhaseField> field_;
};

TEST_F(HmmTest, GridDimensions) {
  EXPECT_EQ(field_->cols(), 40);
  EXPECT_EQ(field_->rows(), 30);
  const Vec2 c = field_->block_center(0, 0);
  EXPECT_NEAR(c.x, 0.005, 1e-12);
  EXPECT_NEAR(c.y, 0.005, 1e-12);
}

TEST_F(HmmTest, EmptyObservationsEmptyTrajectory) {
  EXPECT_TRUE(decode({}).empty());
}

TEST_F(HmmTest, StartsAtHint) {
  const Vec2 hint{0.22, 0.18};
  std::vector<TrackObservation> obs(3);  // idle windows
  const auto traj = decode(obs, &hint);
  ASSERT_EQ(traj.size(), 4u);
  EXPECT_NEAR(traj[0].x, 0.22, cfg_.block_m);
  EXPECT_NEAR(traj[0].y, 0.18, cfg_.block_m);
}

TEST_F(HmmTest, IdleObservationsHoldPosition) {
  const Vec2 hint{0.2, 0.15};
  std::vector<TrackObservation> obs(10);  // no direction, no phase
  const auto traj = decode(obs, &hint);
  for (const auto& p : traj) {
    EXPECT_NEAR(p.x, 0.2, 0.03);
    EXPECT_NEAR(p.y, 0.15, 0.03);
  }
}

TEST_F(HmmTest, FollowsCommandedDirection) {
  const Vec2 hint{0.1, 0.15};
  std::vector<TrackObservation> obs(20, move({1.0, 0.0}, 0.005));
  const auto traj = decode(obs, &hint);
  ASSERT_EQ(traj.size(), 21u);
  // Net displacement to the right by roughly 20 * 5 mm.
  EXPECT_GT(traj.back().x - traj.front().x, 0.07);
  EXPECT_NEAR(traj.back().y, traj.front().y, 0.03);
}

TEST_F(HmmTest, AnnulusLowerBoundForcesMovement) {
  const Vec2 hint{0.2, 0.15};
  // No direction estimate, but the phase says the pen moved ~6 mm/window.
  TrackObservation o;
  o.distance.lower_m = 0.006;
  o.distance.upper_m = 0.01;
  o.distance.valid = true;
  o.has_phase = false;
  std::vector<TrackObservation> obs(10, o);
  const auto traj = decode(obs, &hint);
  double path_len = 0.0;
  for (std::size_t i = 1; i < traj.size(); ++i) {
    path_len += traj[i].dist(traj[i - 1]);
  }
  EXPECT_GT(path_len, 0.04);
}

TEST_F(HmmTest, SpeedLimitRespected) {
  const Vec2 hint{0.2, 0.15};
  std::vector<TrackObservation> obs(15, move({0.0, 1.0}, 0.008));
  const auto traj = decode(obs, &hint);
  const double max_step = cfg_.vmax_mps * cfg_.window_s + cfg_.block_m;
  for (std::size_t i = 1; i < traj.size(); ++i) {
    EXPECT_LE(traj[i].dist(traj[i - 1]), max_step + 1e-9);
  }
}

TEST_F(HmmTest, StaysOnBoard) {
  const Vec2 hint{0.38, 0.28};
  std::vector<TrackObservation> obs(40, move({1.0, 1.0}, 0.008));
  const auto traj = decode(obs, &hint);
  for (const auto& p : traj) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, cfg_.board_width_m);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, cfg_.board_height_m);
  }
}

TEST_F(HmmTest, HyperbolaTermAnchorsLaterally) {
  // Observations whose inter-antenna phase difference matches a point to
  // the right of the start: the decoded path should drift toward it.
  DistanceEstimator dist(cfg_);
  const Vec2 target{0.28, 0.15};
  const double dtheta_target = dist.expected_dtheta21(target, a1_, a2_, 0.12);

  PolarDrawConfig strong = cfg_;
  strong.hyperbola_sharpness = 40.0;

  TrackObservation o;
  o.distance.lower_m = 0.0;
  o.distance.upper_m = 0.01;
  o.distance.valid = true;
  o.distance.dtheta21 = dtheta_target;
  o.has_phase = true;
  std::vector<TrackObservation> obs(60, o);

  const Vec2 hint{0.12, 0.15};
  const auto traj = decode_full_lag(strong, a1_, a2_, 0.12, obs, &hint);
  // The hyperbola field pulls along x; the end should be much closer to
  // the target's expected phase than the start was.
  const double end_err = angle_dist(
      dist.expected_dtheta21(traj.back(), a1_, a2_, 0.12), dtheta_target);
  const double start_err = angle_dist(
      dist.expected_dtheta21(hint, a1_, a2_, 0.12), dtheta_target);
  EXPECT_LT(end_err, start_err * 0.5);
}

TEST_F(HmmTest, InitialLocationOnMatchingHyperbola) {
  DistanceEstimator dist(cfg_);
  const Vec2 truth{0.25, 0.12};
  const double dtheta = dist.expected_dtheta21(truth, a1_, a2_, 0.12);
  const Vec2 start = initial_location_on_field(cfg_, *field_, dtheta);
  const double err =
      angle_dist(dist.expected_dtheta21(start, a1_, a2_, 0.12), dtheta);
  EXPECT_LT(err, 0.2);
}

TEST_F(HmmTest, PhaselessLeadingWindowsBackfilledFromFirstPhaseSeed) {
  // No hint and the first 3 windows drop phase. The seed comes from the
  // hyperbola field of the *first phase* window, which describes the pen
  // at that window -- so the phaseless prefix must be backfilled with the
  // seed rather than decoded away from it (the old behavior let the chain
  // drift off the measured hyperbola before its anchor even applied).
  const Vec2 target{0.12, 0.1};
  const int tc = static_cast<int>(target.x / cfg_.block_m);
  const int tr = static_cast<int>(target.y / cfg_.block_m);
  const double dtheta = field_->phase_at(tc, tr);

  std::vector<TrackObservation> obs;
  for (int i = 0; i < 3; ++i) obs.push_back(move({1.0, 0.0}, 0.006));
  for (int i = 0; i < 5; ++i) {
    TrackObservation o;  // idle but phase-anchored
    o.distance.upper_m = cfg_.vmax_mps * cfg_.window_s;
    o.distance.valid = true;
    o.has_phase = true;
    o.distance.dtheta21 = dtheta;
    obs.push_back(o);
  }

  const auto traj = decode(obs);
  ASSERT_EQ(traj.size(), 9u);
  const Vec2 seed = initial_location_on_field(cfg_, *field_, dtheta);
  // Root + 3 backfilled prefix positions, all pinned to the seed block.
  for (std::size_t i = 0; i <= 3; ++i) {
    EXPECT_NEAR(traj[i].x, seed.x, cfg_.block_m) << "position " << i;
    EXPECT_NEAR(traj[i].y, seed.y, cfg_.block_m) << "position " << i;
    EXPECT_EQ(traj[i].x, traj[0].x) << "position " << i;
    EXPECT_EQ(traj[i].y, traj[0].y) << "position " << i;
  }
}

TEST(GreedyAblation, ProducesSameLengthTrajectory) {
  PolarDrawConfig cfg = small_config();
  cfg.use_viterbi = false;
  TrackObservation o;
  o.direction.type = MotionType::kTranslational;
  o.direction.direction = {1.0, 0.0};
  o.distance.lower_m = 0.004;
  o.distance.upper_m = 0.01;
  o.distance.valid = true;
  std::vector<TrackObservation> obs(12, o);
  const Vec2 hint{0.15, 0.2};
  const auto traj =
      decode_full_lag(cfg, {0.1, 0.35}, {0.3, 0.35}, 0.12, obs, &hint);
  EXPECT_EQ(traj.size(), 13u);
}

}  // namespace
}  // namespace polardraw::core
