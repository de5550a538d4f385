// Tests for the beam-expansion kernel (core/expand_kernel.h).
//
// Parity against the oracle: tests/core/expand_reference.h keeps the
// historical per-candidate scalar loop the golden decodes were captured
// with. From the same beam front the production kernel must emit the same
// candidate cells in the same order, score them within FP-reassociation
// tolerance, pick the same parents (or, at an exact lattice tie, a parent
// the oracle scores within that tolerance), and tally expansions and
// annulus rejections identically. Fronts come from Viterbi walks over the
// golden testbeds and seeds 20-29, and from hand-placed beams on and near
// every board corner and edge, under the lattice knife edges and bounds
// wider than the board. Committed trajectories are pinned separately
// (test_hmm_golden, TrajectoryPin).
//
// Plus the supporting units: the direction-normalization contract (a
// non-unit MotionEstimate::direction, however large or small, must decode
// exactly like its normalized self) and the wrap path of the oracle's
// GenerationScoreboard.
#include "core/expand_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "core/decode_testbed.h"
#include "core/streaming_decoder.h"
#include "expand_reference.h"
#include "scoreboard.h"

namespace polardraw::core {
namespace {

struct GoldenCase {
  PolarDrawConfig cfg;
  int n_windows;
  std::uint64_t seed;
};

/// Same testbeds as tests/core/test_hmm_golden.cc pins bit-exactly.
std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  cases.push_back({PolarDrawConfig{}, 100, 1});
  cases.push_back({PolarDrawConfig{}, 100, 2});
  PolarDrawConfig small;
  small.board_width_m = 0.5;
  small.board_height_m = 0.4;
  small.block_m = 0.005;
  small.beam_width = 200;
  small.hyperbola_sharpness = 1.0;
  cases.push_back({small, 80, 3});
  PolarDrawConfig greedy;
  greedy.use_viterbi = false;
  cases.push_back({greedy, 60, 4});
  return cases;
}

struct Candidates : Beam {
  ExpandStats stats;
};

/// The oracle's score for reaching `cell` from `prev`'s node `parent` alone.
float oracle_score(testing::ExpandReference& oracle, const TrackObservation& o,
                   const Beam& prev, std::int32_t parent, std::int32_t cell) {
  const auto a = static_cast<std::size_t>(parent);
  const Beam node{{prev.cell[a]}, {prev.logp[a]}, {-1}};
  Candidates one;
  oracle.expand(o, node, one, one.stats);
  const auto it = std::find(one.cell.begin(), one.cell.end(), cell);
  return it == one.cell.end()
             ? -std::numeric_limits<float>::infinity()
             : one.logp[static_cast<std::size_t>(it - one.cell.begin())];
}

/// Expands one window from the beam `front` with both the production
/// kernel and the oracle, checks that they agree, and returns the
/// production candidates.
Candidates expand_both(const PolarDrawConfig& cfg, const PhaseField& field,
                       testing::ExpandReference& oracle,
                       const TrackObservation& o, const Beam& front) {
  constexpr float kTol = 1e-4f;
  Candidates want, got;
  oracle.expand(o, front, want, want.stats);
  expand_beam(cfg, field, o, front, got, got.stats);
  EXPECT_EQ(got.stats.expansions, want.stats.expansions);
  EXPECT_EQ(got.stats.annulus_rejected, want.stats.annulus_rejected);
  EXPECT_EQ(got.cell.size(), want.cell.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < std::min(got.cell.size(), want.cell.size());
       ++i) {
    if (got.cell[i] == want.cell[i] &&
        std::fabs(got.logp[i] - want.logp[i]) <= kTol) {
      if (got.parent[i] == want.parent[i]) continue;
      // Two parents that tie exactly on the block lattice differ by an ulp
      // or so in center-difference arithmetic, so reassociation may pick
      // either one. A different parent is accepted only if the oracle
      // scores it within tolerance of its own best.
      if (std::fabs(oracle_score(oracle, o, front, got.parent[i],
                                 got.cell[i]) -
                    want.logp[i]) <= kTol) {
        continue;
      }
    }
    if (mismatches++ == 0) {
      ADD_FAILURE() << "first mismatch at candidate " << i << ": cell "
                    << got.cell[i] << " vs " << want.cell[i] << ", parent "
                    << got.parent[i] << " vs " << want.parent[i]
                    << ", logp " << got.logp[i] << " vs " << want.logp[i];
    }
  }
  EXPECT_EQ(mismatches, 0u);
  return got;
}

/// A minimal Viterbi forward pass over `tb` from its start cell, driven by
/// the production kernel: renormalize each window, keep the beam_width best
/// (one for the greedy ablation), hold the front on a starved window. Every
/// window's expansion is checked against the oracle from the same front.
void walk_and_compare(const PolarDrawConfig& cfg, const DecodeTestbed& tb) {
  const PhaseField field(cfg, tb.a1, tb.a2, tb.antenna_z);
  testing::ExpandReference oracle(cfg, field);
  const int c0 = std::clamp(static_cast<int>(tb.start.x / cfg.block_m), 0,
                            field.cols() - 1);
  const int r0 = std::clamp(static_cast<int>(tb.start.y / cfg.block_m), 0,
                            field.rows() - 1);
  Beam front{{r0 * field.cols() + c0}, {0.0f}, {-1}};
  for (std::size_t w = 0; w < tb.obs.size(); ++w) {
    SCOPED_TRACE(::testing::Message() << "window " << w);
    const Candidates c = expand_both(cfg, field, oracle, tb.obs[w], front);
    if (::testing::Test::HasFailure()) return;  // report one window only
    if (c.cell.empty()) continue;  // starved: hold the front
    std::vector<std::size_t> order(c.cell.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t x, std::size_t y) {
                       return c.logp[x] > c.logp[y];
                     });
    const std::size_t keep =
        cfg.use_viterbi ? std::min(order.size(), cfg.beam_width) : 1;
    const float wmax = c.logp[order[0]];
    front.resize(keep);
    for (std::size_t k = 0; k < keep; ++k) {
      front.cell[k] = c.cell[order[k]];
      front.logp[k] = c.logp[order[k]] - wmax;
      front.parent[k] = c.parent[order[k]];
    }
  }
}

/// Hand-placed beam fronts: a small cluster mid-board; one node on every
/// corner and edge midpoint, so the traversal clips against all four board
/// edges; nodes a few blocks in from each edge and corner; a cluster by the
/// left edge that mixes parents whose ring lies on the board with parents
/// whose ring is clipped; and the shapes the row walk treats apart: two
/// clusters on the same rows with a wide gap of holes between them,
/// isolated parents on alternate rows, a one-column beam, a cluster in
/// each board corner, and two parents that tie on the cell between them.
void placed_fronts_and_compare() {
  const PolarDrawConfig cfg;
  const auto tb = make_decode_testbed(cfg, 4, 11);
  const PhaseField field(cfg, tb.a1, tb.a2, tb.antenna_z);
  testing::ExpandReference oracle(cfg, field);
  const int cols = field.cols(), rows = field.rows();
  const auto cell = [cols](int c, int r) { return r * cols + c; };

  // Nodes 1-4 blocks in from every edge midpoint and along every corner's
  // diagonal: under the default bounds (reach 3) some of their rings cross
  // a board side and some just stay on it, so the board clip cuts some
  // lanes' parent columns and not others.
  std::vector<std::int32_t> near_edges;
  for (int k = 1; k <= 4; ++k) {
    for (const int c : {k, cols - 1 - k}) {
      near_edges.push_back(cell(c, rows / 2));
      for (const int r : {k, rows - 1 - k}) near_edges.push_back(cell(c, r));
    }
    near_edges.push_back(cell(cols / 2, k));
    near_edges.push_back(cell(cols / 2, rows - 1 - k));
  }
  const int mr = rows / 2;
  const std::vector<std::vector<std::int32_t>> fronts = {
      {cell(cols / 2, rows / 2), cell(cols / 2 + 3, rows / 2),
       cell(cols / 2 + 1, rows / 2 + 2)},
      {cell(0, 0), cell(cols - 1, 0), cell(0, rows - 1),
       cell(cols - 1, rows - 1), cell(cols / 2, 0), cell(cols / 2, rows - 1),
       cell(0, rows / 2), cell(cols - 1, rows / 2)},
      near_edges,
      // Interior and border parents alternating, rings overlapping, so
      // clipped and unclipped lanes merge into the same cells.
      {cell(3, mr), cell(2, mr), cell(4, mr + 1), cell(1, mr - 1),
       cell(5, mr - 2), cell(0, mr + 2), cell(3, mr + 3), cell(2, mr - 3)},
      // Two clusters on the same rows, far more than 2 * reach apart under
      // the default bounds, so each row's hull spans a wide gap of holes.
      {cell(40, mr), cell(41, mr), cell(40, mr + 1), cell(42, mr - 1),
       cell(cols - 40, mr), cell(cols - 42, mr + 1), cell(cols - 41, mr - 1),
       cell(cols - 40, mr - 1)},
      // Isolated parents on alternate rows, each row's hull one column.
      {cell(60, mr - 6), cell(67, mr - 4), cell(53, mr - 2), cell(75, mr),
       cell(60, mr + 2), cell(61, mr + 4), cell(90, mr + 6)},
      // A one-column beam.
      {cell(cols / 3, mr - 4), cell(cols / 3, mr - 3), cell(cols / 3, mr - 1),
       cell(cols / 3, mr), cell(cols / 3, mr + 1), cell(cols / 3, mr + 4)},
      // A cluster in each board corner (the 100 m bound below spans them).
      {cell(0, 0), cell(1, 0), cell(0, 1), cell(cols - 1, 0),
       cell(cols - 2, 1), cell(0, rows - 1), cell(1, rows - 2),
       cell(cols - 1, rows - 1), cell(cols - 2, rows - 1)},
      // Two parents two columns apart, which score the cell between them
      // exactly alike in the idle variant without phase.
      {cell(cols / 2 - 1, mr), cell(cols / 2 + 1, mr)},
  };
  // Distance bounds (a negative value keeps the testbed's own). 0.01 m is
  // the default lattice knife edge: the outer threshold upper + block/2
  // lands on exactly 3.0 blocks. A lower bound of 2.25 blocks puts the
  // inner threshold (lower - block/4) on the lattice at 2 blocks. 5 m and
  // 100 m span the whole board. A 0.3 m lower bound opens a hole wider than
  // an edge or corner parent's distance to the board side, so a side
  // removes a row's whole left run or cuts inside the hole.
  struct Bound {
    double lower_m, upper_m;
  };
  const Bound bounds[] = {{-1.0, -1.0},
                          {-1.0, 0.01},
                          {2.25 * cfg.block_m, 0.01},
                          {-1.0, 5.0},
                          {0.3, 5.0},
                          {-1.0, 100.0}};

  for (std::size_t f = 0; f < fronts.size(); ++f) {
    Beam front;
    front.cell = fronts[f];
    const bool tie = f + 1 == fronts.size();
    for (std::size_t i = 0; i < front.size(); ++i) {
      front.logp.push_back(tie ? -0.5f : -0.25f * static_cast<float>(i));
      front.parent.push_back(-1);
    }
    for (const Bound& b : bounds) {
      for (const TrackObservation& base : tb.obs) {
        // Each window as generated, idle, and without phase, so every
        // emission term is on in some case and off in another.
        for (int variant = 0; variant < 3; ++variant) {
          TrackObservation o = base;
          if (b.lower_m >= 0.0) o.distance.lower_m = b.lower_m;
          if (b.upper_m >= 0.0) o.distance.upper_m = b.upper_m;
          if (variant == 1) o.direction.type = MotionType::kIdle;
          if (variant == 2) o.has_phase = false;
          SCOPED_TRACE(::testing::Message()
                       << "front " << f << " lower " << o.distance.lower_m
                       << " upper " << o.distance.upper_m << " variant "
                       << variant);
          expand_both(cfg, field, oracle, o, front);
        }
      }
    }
  }

  // The tie in an idle window: the oracle accepts either parent at a tie,
  // so the kernel's rule is checked here. The lower index wins in either
  // order, and the cell carries the bits that parent scores alone.
  TrackObservation idle = tb.obs[0];
  idle.direction.type = MotionType::kIdle;
  idle.distance.lower_m = 0.0;
  idle.distance.upper_m = 0.01;
  const std::int32_t mid = cell(cols / 2, mr);
  const auto logp_at = [&](const Beam& front, std::int32_t& parent) {
    Candidates got;
    expand_beam(cfg, field, idle, front, got, got.stats);
    const auto it = std::find(got.cell.begin(), got.cell.end(), mid);
    EXPECT_NE(it, got.cell.end());
    const auto i = static_cast<std::size_t>(it - got.cell.begin());
    parent = got.parent[i];
    return std::bit_cast<std::uint32_t>(got.logp[i]);
  };
  for (const int c0 : {cols / 2 - 1, cols / 2 + 1}) {
    const int c1 = 2 * (cols / 2) - c0;  // the other side of the cell
    SCOPED_TRACE(::testing::Message() << "tie, parent 0 at column " << c0);
    std::int32_t parent = -1, alone_parent = -1;
    const Beam pair{{cell(c0, mr), cell(c1, mr)}, {-0.5f, -0.5f}, {-1, -1}};
    const Beam alone{{cell(c0, mr)}, {-0.5f}, {-1}};
    EXPECT_EQ(logp_at(pair, parent), logp_at(alone, alone_parent));
    EXPECT_EQ(parent, 0);
  }
}

TEST(ExpandKernelParity, KernelsAgreeOnCandidateSetAndStats) {
  for (const GoldenCase& gc : golden_cases()) {
    SCOPED_TRACE(::testing::Message() << "golden seed " << gc.seed);
    walk_and_compare(gc.cfg,
                     make_decode_testbed(gc.cfg, gc.n_windows, gc.seed));
  }
  for (std::uint64_t seed = 20; seed < 30; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const PolarDrawConfig cfg;
    walk_and_compare(cfg, make_decode_testbed(cfg, 60, seed));
  }
  placed_fronts_and_compare();
}

TEST(ExpandKernel, NonUnitDirectionDecodesLikeItsNormalizedSelf) {
  // The emission's half-plane threshold and perpendicular-distance scale
  // are in meters, so MotionEstimate::direction must be unit length; the
  // decoder's door (StreamingDecoder::push) normalizes it. Scaling every
  // direction by a power of two must change nothing: by 4, where the
  // renormalization is FP-exact, and by 2^600 and 2^-600, whose squares
  // overflow and underflow.
  PolarDrawConfig cfg;
  cfg.board_width_m = 0.4;
  cfg.board_height_m = 0.3;
  cfg.block_m = 0.01;
  cfg.beam_width = 200;
  TrackObservation right;
  right.direction.type = MotionType::kTranslational;
  right.direction.direction = Vec2{1.0, 0.0};
  right.distance.lower_m = 0.004;
  right.distance.upper_m = 0.01;
  right.distance.valid = true;
  right.has_phase = false;
  TrackObservation up = right;
  up.direction.direction = Vec2{0.0, 1.0};
  std::vector<TrackObservation> unit_obs;
  for (int i = 0; i < 12; ++i) unit_obs.push_back(i % 3 == 2 ? up : right);

  const Vec2 a1{0.1, 0.35}, a2{0.3, 0.35};
  const Vec2 start{0.1, 0.15};
  const auto unit = decode_full_lag(cfg, a1, a2, 0.12, unit_obs, &start);
  for (const double scale :
       {4.0, std::ldexp(1.0, 600), std::ldexp(1.0, -600)}) {
    SCOPED_TRACE(::testing::Message() << "scale " << scale);
    std::vector<TrackObservation> scaled_obs = unit_obs;
    for (auto& o : scaled_obs) {
      o.direction.direction = Vec2{o.direction.direction.x * scale,
                                   o.direction.direction.y * scale};
    }
    const auto scaled = decode_full_lag(cfg, a1, a2, 0.12, scaled_obs, &start);
    ASSERT_EQ(scaled.size(), unit.size());
    for (std::size_t i = 0; i < unit.size(); ++i) {
      EXPECT_EQ(scaled[i].x, unit[i].x) << "position " << i;
      EXPECT_EQ(scaled[i].y, unit[i].y) << "position " << i;
    }
  }
}

TEST(ExpandKernel, SquaredAnnulusThresholdsMatchTheSqrtTest) {
  // Knife-edge lanes test a squared center-difference step s against two
  // thresholds found once per window, in place of the annulus test
  // !(sqrt(s) > out || sqrt(s) + quarter < lower). Correctly rounded sqrt
  // and + are monotone, so the two compares must agree with it on every
  // s; a threshold off by an ulp shows within 256 ulps of it. The outer
  // thresholds are 2, 2.5, 3 (the default knife edge) and 4 blocks.
  const double block = PolarDrawConfig{}.block_m;
  const double quarter = 0.25 * block;
  std::vector<double> lowers = {0.0, quarter, 0.3};
  for (int k = 1; k <= 3; ++k) {
    lowers.push_back(k * block - quarter);
    lowers.push_back(k * block + quarter);  // inner threshold on the lattice
  }
  for (const double out_blocks : {2.0, 2.5, 3.0, 4.0}) {
    const double out = out_blocks * block;
    for (const double lower : lowers) {
      SCOPED_TRACE(::testing::Message() << "out " << out << " lower " << lower);
      const SquaredAnnulus sq = squared_annulus(out, quarter, lower);
      std::size_t mismatches = 0;
      for (const double threshold : {sq.out_sq, sq.lower_sq}) {
        if (threshold < 0.0) continue;  // no inner threshold
        const auto bits = std::bit_cast<std::uint64_t>(threshold);
        for (std::uint64_t b = bits - std::min<std::uint64_t>(bits, 256);
             b <= bits + 256; ++b) {
          const double s = std::bit_cast<double>(b);
          const bool sqrt_test =
              !(std::sqrt(s) > out || std::sqrt(s) + quarter < lower);
          mismatches += (s <= sq.out_sq && s > sq.lower_sq) != sqrt_test;
        }
      }
      EXPECT_EQ(mismatches, 0u);
    }
  }
}

TEST(GenerationScoreboard, CounterWrapFallsBackToFullWipe) {
  testing::GenerationScoreboard<std::int32_t> sb(8);
  sb.put(3, 42);
  EXPECT_TRUE(sb.contains(3));

  // Jump to the last pre-wrap generation: entries written now carry the
  // max stamp, and the next clear() wraps the counter to 0 -- which must
  // trigger the full stamp wipe, or those entries would alias as live
  // once the counter climbs back to their stamp value.
  sb.debug_set_generation(0xFFFFFFFFu);
  sb.put(5, 7);
  EXPECT_TRUE(sb.contains(5));
  EXPECT_EQ(sb.get(5), 7);

  sb.clear();  // wraps: ++gen == 0 -> wipe, gen = 1
  for (std::size_t cell = 0; cell < sb.size(); ++cell) {
    EXPECT_FALSE(sb.contains(cell)) << "cell " << cell;
  }
  // The scoreboard is fully usable after the wipe.
  sb.put(5, 9);
  EXPECT_TRUE(sb.contains(5));
  EXPECT_EQ(sb.get(5), 9);
  sb.clear();
  EXPECT_FALSE(sb.contains(5));
}

}  // namespace
}  // namespace polardraw::core
