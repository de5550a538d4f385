#include "core/phase_field.h"

// polarlint: hot-path -- no node-based hash maps in the decode loop.

#include <algorithm>

#include "core/distance_estimator.h"

namespace polardraw::core {

PhaseField::PhaseField(const PolarDrawConfig& cfg, Vec2 a1, Vec2 a2,
                       double antenna_z)
    : cols_(std::max(1, static_cast<int>(cfg.board_width_m / cfg.block_m))),
      rows_(std::max(1, static_cast<int>(cfg.board_height_m / cfg.block_m))),
      block_m_(cfg.block_m) {
  cx_.resize(static_cast<std::size_t>(cols_));
  cy_.resize(static_cast<std::size_t>(rows_));
  for (int c = 0; c < cols_; ++c) {
    cx_[static_cast<std::size_t>(c)] =
        (static_cast<double>(c) + 0.5) * block_m_;
  }
  for (int r = 0; r < rows_; ++r) {
    cy_[static_cast<std::size_t>(r)] =
        (static_cast<double>(r) + 0.5) * block_m_;
  }

  // The wrapped phase goes through DistanceEstimator so the cached values
  // are bit-identical to what the decoder used to evaluate inline.
  const DistanceEstimator dist(cfg);
  phase_.resize(static_cast<std::size_t>(cols_) *
                static_cast<std::size_t>(rows_));
  std::size_t i = 0;
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c, ++i) {
      phase_[i] = dist.expected_dtheta21(block_center(c, r), a1, a2, antenna_z);
    }
  }
}

}  // namespace polardraw::core
