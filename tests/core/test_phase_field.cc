// Tests for the precomputed phase-difference field and for the generation
// scoreboard the kernel oracle (expand_reference.h) merges through.
#include "core/phase_field.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "core/distance_estimator.h"
#include "scoreboard.h"

namespace polardraw::core {
namespace {

PolarDrawConfig small_config() {
  PolarDrawConfig cfg;
  cfg.board_width_m = 0.4;
  cfg.board_height_m = 0.3;
  cfg.block_m = 0.01;
  return cfg;
}

class PhaseFieldTest : public ::testing::Test {
 protected:
  PhaseFieldTest()
      : cfg_(small_config()),
        a1_{0.1, 0.35},
        a2_{0.3, 0.35},
        z_(0.12),
        field_(cfg_, a1_, a2_, z_) {}

  PolarDrawConfig cfg_;
  Vec2 a1_, a2_;
  double z_;
  PhaseField field_;
};

TEST_F(PhaseFieldTest, GridMatchesHmmDiscretization) {
  EXPECT_EQ(field_.cols(), 40);
  EXPECT_EQ(field_.rows(), 30);
  EXPECT_EQ(field_.cells(), 1200u);
  const Vec2 c = field_.block_center(0, 0);
  EXPECT_NEAR(c.x, 0.005, 1e-12);
  EXPECT_NEAR(c.y, 0.005, 1e-12);
}

TEST_F(PhaseFieldTest, CachedValuesBitIdenticalToDirectEvaluation) {
  const DistanceEstimator dist(cfg_);
  for (int r = 0; r < field_.rows(); ++r) {
    for (int c = 0; c < field_.cols(); ++c) {
      const Vec2 p = field_.block_center(c, r);
      // Exact equality: the cache must be a drop-in for the inline call.
      EXPECT_EQ(field_.phase_at(c, r),
                dist.expected_dtheta21(p, a1_, a2_, z_))
          << "cell (" << c << ", " << r << ")";
    }
  }
}

TEST(PhaseFieldDegenerate, SingleCellGrid) {
  PolarDrawConfig cfg;
  cfg.board_width_m = 0.004;
  cfg.board_height_m = 0.004;
  cfg.block_m = 0.01;  // larger than the board: 1x1 grid
  const Vec2 a1{0.0, 0.1}, a2{0.1, 0.1};
  const PhaseField field(cfg, a1, a2, 0.1);
  EXPECT_EQ(field.cols(), 1);
  EXPECT_EQ(field.rows(), 1);
  EXPECT_EQ(field.cells(), 1u);
  const Vec2 c = field.block_center(0, 0);
  EXPECT_NEAR(c.x, 0.005, 1e-12);
  EXPECT_NEAR(c.y, 0.005, 1e-12);
  EXPECT_EQ(field.phase_at(0, 0),
            DistanceEstimator(cfg).expected_dtheta21(c, a1, a2, 0.1));
}

// ---------------------------------------------------------------------------
// GenerationScoreboard
// ---------------------------------------------------------------------------
TEST(Scoreboard, PutGetContains) {
  testing::GenerationScoreboard<std::int32_t> board(8);
  EXPECT_EQ(board.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_FALSE(board.contains(i));
  board.put(3, 42);
  EXPECT_TRUE(board.contains(3));
  EXPECT_EQ(board.get(3), 42);
  EXPECT_FALSE(board.contains(2));
  board.put(3, 7);
  EXPECT_EQ(board.get(3), 7);
}

TEST(Scoreboard, ClearInvalidatesWithoutTouchingStorage) {
  testing::GenerationScoreboard<std::int32_t> board(64);
  for (std::size_t i = 0; i < 64; ++i) board.put(i, static_cast<int>(i));
  board.clear();
  for (std::size_t i = 0; i < 64; ++i) EXPECT_FALSE(board.contains(i));
  // Re-population after clear behaves like a fresh board.
  board.put(10, 5);
  EXPECT_TRUE(board.contains(10));
  EXPECT_EQ(board.get(10), 5);
  EXPECT_FALSE(board.contains(11));
}

TEST(Scoreboard, ManyGenerationsStayIsolated) {
  testing::GenerationScoreboard<std::int32_t> board(4);
  for (int gen = 0; gen < 10000; ++gen) {
    const std::size_t cell = static_cast<std::size_t>(gen) % 4;
    board.put(cell, gen);
    EXPECT_TRUE(board.contains(cell));
    EXPECT_EQ(board.get(cell), gen);
    board.clear();
    EXPECT_FALSE(board.contains(cell));
  }
}

TEST(Scoreboard, ResizeResetsEverything) {
  testing::GenerationScoreboard<double> board(2);
  board.put(0, 1.5);
  board.resize(16);
  EXPECT_EQ(board.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_FALSE(board.contains(i));
  board.put(15, 2.5);
  EXPECT_DOUBLE_EQ(board.get(15), 2.5);
}

}  // namespace
}  // namespace polardraw::core
