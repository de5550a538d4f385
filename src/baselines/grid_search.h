// Grid beam search shared by the baseline trackers (DESIGN.md section 14).
//
// Tagoram's differential hologram and RF-IDraw's AoA intersection both
// reduce, in discrete form, to one engine: a grid of blocks, a speed-limit
// annulus and one phase-coherence score per move, read from per-cell
// tables of cos and sin of kL_a = 4*pi*L_a/lambda per antenna and of
// kL_j - kL_i per pair (Tagoram's hologram). A port's measured change m
// scores through cos(m - k(L_to - L_from)) = cos(m + kL_from) cos(kL_to) +
// sin(m + kL_from) sin(kL_to): one cos/sin per parent and antenna, then two
// multiply-adds per lane. Candidates merge per cell in first-touch order,
// and each step prunes through PolarDraw's own prune (common/beam.h).
#pragma once

#include <utility>
#include <vector>

#include "common/vec.h"
#include "em/antenna.h"
#include "em/constants.h"

namespace polardraw::baselines {

/// Everything a baseline tracker is configured with: the board grid, the
/// window, the speed limit, the beam width and the carrier wavelength.
struct GridConfig {
  double board_width_m = 1.0;
  double board_height_m = 0.6;
  double block_m = 0.004;
  double vmax_mps = 0.2;
  double window_s = 0.05;
  std::size_t beam_width = 600;
  double wavelength_m = em::kDefaultWavelength;
};

/// What a decode scores, one row per step (the move from one window to
/// the next), NaN where nothing was measured: each port's phase change
/// ([step][port]) and, for antenna index pairs (i, j), phase_j - phase_i
/// in the step's target window ([step][pair]; none for Tagoram).
struct PhaseSteps {
  std::vector<std::vector<double>> port_deltas{};
  double port_weight = 0.0;
  std::vector<std::pair<int, int>> pairs{};
  std::vector<std::vector<double>> pair_diffs{};
  double pair_weight = 0.0;
};

/// Viterbi beam decode of port_deltas.size() moves from `start`. A move
/// within the speed limit scores the sum over the step's measured pairs,
/// then ports, of weight * (cos(measured - predicted) - 1), or -0.1 when
/// nothing was measured. Returns steps + 1 positions (block centers).
std::vector<Vec2> grid_beam_decode(
    const GridConfig& cfg, const Vec2& start,
    const std::vector<em::ReaderAntenna>& antennas, const PhaseSteps& steps);

}  // namespace polardraw::baselines
