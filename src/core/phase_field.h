// Precomputed inter-antenna phase-difference field over the whiteboard grid.
// polarlint: hot-path -- no node-based hash maps in the decode loop.
//
// The antennas never move during a writing session, so the hyperbola field
// of Eq. 7 -- DistanceEstimator::expected_dtheta21 evaluated at every block
// center -- is a pure function of (antenna layout, grid). The decoder used
// to re-evaluate it (two sqrts plus a wrap) for every candidate block of
// every window; this cache computes the whole rows x cols table of wrapped
// expected phase differences once, and every decoder on the layout (a
// batch track, each server session) shares it read-only. The same
// precomputation trick is standard in hyperbolic-positioning systems with
// static anchor geometry.
#pragma once

#include <cstddef>
#include <vector>

#include "common/vec.h"
#include "core/config.h"

namespace polardraw::core {

class PhaseField {
 public:
  /// Builds the field for one (antenna layout, grid) pair. This is the
  /// decode grid: board extent over block size per axis, at least 1.
  PhaseField(const PolarDrawConfig& cfg, Vec2 a1, Vec2 a2, double antenna_z);

  int cols() const { return cols_; }
  int rows() const { return rows_; }
  std::size_t cells() const { return phase_.size(); }
  double block_m() const { return block_m_; }

  /// Center of block (col, row): the position the decoder emits for it.
  Vec2 block_center(int col, int row) const {
    return Vec2{cx_[static_cast<std::size_t>(col)],
                cy_[static_cast<std::size_t>(row)]};
  }
  double center_x(int col) const { return cx_[static_cast<std::size_t>(col)]; }
  double center_y(int row) const { return cy_[static_cast<std::size_t>(row)]; }

  /// Expected wrapped phase difference at a block center; bit-identical to
  /// DistanceEstimator::expected_dtheta21(block_center(col, row), ...).
  double phase_at(int col, int row) const {
    return phase_[cell_index(col, row)];
  }
  double phase_at_cell(std::size_t cell) const { return phase_[cell]; }

  /// Contiguous row of wrapped expected phase differences (cols() values
  /// starting at column 0). The beam-expansion kernel streams these
  /// instead of doing per-cell lookups.
  const double* phase_row(int row) const {
    return &phase_[cell_index(0, row)];
  }

  std::size_t cell_index(int col, int row) const {
    return static_cast<std::size_t>(row) * static_cast<std::size_t>(cols_) +
           static_cast<std::size_t>(col);
  }

 private:
  int cols_, rows_;
  double block_m_;
  std::vector<double> cx_, cy_;  // block-center coordinates per axis
  std::vector<double> phase_;    // wrapped expected dtheta21 per cell
};

}  // namespace polardraw::core
