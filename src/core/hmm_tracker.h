// HMM trajectory tracking (paper section 3.5 + appendix).
//
// The whiteboard is discretized into equal blocks; the hidden state X_t is
// the pen's block at window t. Transitions (Eq. 8) are uniform over the
// feasible annulus (lower/upper displacement bounds from the distance
// estimator). The observation weight (Eq. 11) combines:
//   * the hyperbola constraint -- how well a block's inter-antenna path
//     difference matches the measured inter-antenna phase difference, and
//   * the direction-line constraint -- the block's perpendicular distance
//     to the line through the previous location along the estimated
//     moving direction.
// Because the paper's emission references the previous location, the term
// is evaluated edge-wise inside the Viterbi recursion (it is formally a
// transition weight; the decoded optimum is identical).
//
// Viterbi decoding with beam pruning recovers the most likely block
// sequence; the final trajectory is then rotated by the accumulated
// initial-azimuth error (Eq. 10).
//
// Hot-path layout: the expected phase-difference field is precomputed once
// per antenna layout (core/phase_field.h) and shared by every decoder on
// that layout; the forward pass tracks best-per-cell candidates in a
// dense generation-stamped scoreboard (core/scoreboard.h) and stores beams
// as flat SoA arrays in a step-indexed arena, so a decode allocates a
// handful of buffers total instead of per-window node vectors.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/vec.h"
#include "core/config.h"
#include "core/distance_estimator.h"
#include "core/motion.h"
#include "core/phase_field.h"

namespace polardraw::core {

/// One fused observation per window, as consumed by the HMM.
struct TrackObservation {
  DirectionEstimate direction;
  DistanceEstimate distance;
  bool has_phase = false;  // both antennas had valid phase this window
};

/// Hyperbolic bootstrap shared by the batch and streaming decoders
/// (section 3.5 "Initial location estimation"): picks a board point whose
/// expected inter-antenna phase difference matches `dtheta21`, preferring
/// points near the board center. Deterministic; absolute position is
/// unobservable from two antennas, so any consistent point serves.
Vec2 initial_location_on_field(const PolarDrawConfig& cfg,
                               const PhaseField& field, double dtheta21);

class HmmTracker {
 public:
  /// `a1`, `a2`: antenna positions projected on the board plane;
  /// `antenna_z`: common standoff of the antennas from the board.
  /// `field`: optional pre-built phase-difference cache for this layout
  /// (shared across trackers); built on the spot when absent.
  HmmTracker(const PolarDrawConfig& cfg, Vec2 a1, Vec2 a2, double antenna_z,
             std::shared_ptr<const PhaseField> field = nullptr);

  /// Decodes the most likely block-center trajectory for the observation
  /// sequence. `initial_hint`: when provided (e.g. from hyperbolic
  /// positioning), seeds the first state; otherwise the tracker seeds from
  /// the hyperbola field of the first phase observation.
  std::vector<Vec2> decode(const std::vector<TrackObservation>& obs,
                           const Vec2* initial_hint = nullptr) const;

  /// Applies Eq. 10: rotates a trajectory about its centroid by
  /// `-alpha_r_error_rad` to undo the initial-azimuth error.
  static std::vector<Vec2> rotate_trajectory(const std::vector<Vec2>& traj,
                                             double alpha_r_error_rad);

  // Grid helpers (exposed for tests).
  int cols() const { return cols_; }
  int rows() const { return rows_; }
  Vec2 block_center(int col, int row) const {
    return field_->block_center(col, row);
  }
  const PhaseField& field() const { return *field_; }

 private:
  PolarDrawConfig cfg_;
  Vec2 a1_, a2_;
  double antenna_z_;
  std::shared_ptr<const PhaseField> field_;
  int cols_, rows_;
};

}  // namespace polardraw::core
