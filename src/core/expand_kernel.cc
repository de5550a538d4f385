#include "core/expand_kernel.h"

// polarlint: hot-path -- no node-based hash maps in the decode loop.

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/angles.h"
#include "common/vec.h"

namespace polardraw::core {

namespace {
constexpr double kWeightFloor = 1e-6;  // keeps log-probabilities finite
const double kLogWeightFloor = std::log(kWeightFloor);
const double kLogQuarter = std::log(0.25);
constexpr float kNegInfF = -std::numeric_limits<float>::infinity();
/// The index of a parent-grid hole, and the first parent of a cell no
/// parent accepted: above every parent index, so no merge picks it.
constexpr std::int32_t kNoParent = std::numeric_limits<std::int32_t>::max();
/// Columns of holes past each box row, so a lane can run on past its
/// parent row's hull to a whole number of 4-wide vectors.
constexpr int kPad = 3;

/// Per-window hoists, computed exactly as the historical in-loop hoists
/// so the knife-edge lanes reproduce its annulus decisions.
struct WindowTerms {
  double lower_m = 0.0, upper_m = 0.0;
  double out_thresh_m = 0.0, quarter_block_m = 0.0;
  int reach_blocks = 1;
  bool use_hyper = false, use_dir = false, idle_step_penalty = false;
  double meas_rad = 0.0;
  Vec2 dir;
  double dmax_m = 0.0, back_thresh_m = 0.0;
};

/// One displacement of a ring row, with its direction and idle log-weight.
struct Lane {
  std::int32_t dc;
  double logw;
};
/// One row dr of the ring: its column reach, and where its lanes and its
/// knife-edge lanes start in their lists. The next row's starts end them.
struct RingRow {
  int lim = 0;  // dc_lim[|dr|]
  std::size_t lane = 0, edge = 0;
};

/// Every buffer one window needs besides expand_beam's arguments. A thread
/// holds one set and every decoder it runs shares it: each buffer is reset
/// or overwritten before the window reads it, so nothing carries from one
/// window, or one decoder, to the next. The buffers grow to the largest
/// window the thread has expanded and never shrink.
struct ExpandScratch {
  std::vector<RingRow> ring;  // per dr + reach, and one past the last
  std::vector<int> parent_row_lo, parent_row_hi;  // parent columns per row
  std::vector<int> row_span_lo, row_span_hi;      // touched columns per row
  std::vector<Lane> lanes, edge_lanes;
  std::vector<double> hyper_row;  // one candidate row's hyperbola log-weight
  // Per-cell arrays over the bounding box of the row spans.
  std::vector<float> box_logp;             // best log-prob so far, -inf
  std::vector<std::int32_t> box_parent;    // its parent (index into prev)
  std::vector<std::int32_t> box_first;     // least accepting parent
  std::vector<float> parent_logp;          // the parent grid: prev's
  std::vector<std::int32_t> parent_index;  // log-prob and index per cell
  std::vector<std::size_t> parent_count;   // emission counting sort
};

thread_local ExpandScratch tls_scratch;

WindowTerms window_terms(const PolarDrawConfig& cfg, int cols, int rows,
                         const TrackObservation& o) {
  WindowTerms w;
  // Feasible annulus in blocks. An invalid (inconsistent) distance
  // estimate degrades to "anywhere within the speed limit".
  w.lower_m = o.distance.valid ? o.distance.lower_m : 0.0;
  w.upper_m = std::max({o.distance.upper_m, w.lower_m, cfg.block_m * 0.5});
  // No displacement leaves the grid, so the reach is capped at its larger
  // extent before the cast: a huge bound costs one board-sized ring.
  const double reach = std::ceil(w.upper_m / cfg.block_m);
  const double grid = static_cast<double>(std::max(cols, rows));
  w.reach_blocks = std::max(1, static_cast<int>(reach <= grid ? reach : grid));
  w.out_thresh_m = w.upper_m + 0.5 * cfg.block_m;
  w.quarter_block_m = 0.25 * cfg.block_m;
  w.use_hyper =
      cfg.use_hyperbola_constraint && o.has_phase && o.distance.valid;
  w.meas_rad = w.use_hyper ? wrap_2pi(o.distance.dtheta21) : 0.0;
  // The direction is unit or zero (StreamingDecoder::push normalizes it).
  w.use_dir = o.direction.type != MotionType::kIdle &&
              o.direction.direction.norm_sq() > 0.0;
  w.dir = o.direction.direction;
  w.dmax_m = std::max(o.distance.upper_m, cfg.block_m);
  w.back_thresh_m = -0.25 * cfg.block_m;
  w.idle_step_penalty =
      o.direction.type == MotionType::kIdle && w.upper_m > 0.0;
  return w;
}

/// Builds the window's ring row by row: each row's column reach, and every
/// displacement an on-board parent can use (|dr| < rows, |dc| < cols) with
/// its direction and idle log-weight, the annulus-valid ones in `lanes`,
/// the knife-edge ones in `edge_lanes`, the rejected ones left out.
/// Returns the ring's lane count, rejected lanes too.
std::uint64_t fill_ring(const PolarDrawConfig& cfg, const WindowTerms& w,
                        int cols, int rows, ExpandScratch& s) {
  // Integer annulus bound: a candidate |dc| blocks away horizontally and
  // |dr| vertically is at least ~sqrt(dc^2+dr^2) blocks out, so columns
  // beyond this limit cannot pass the exact outer-radius test (the +1
  // absorbs block-center rounding). Rows stay within [-reach, reach].
  // Knife-edge displacements -- lattice distance within kEdgeEps of either
  // annulus threshold -- go to edge_lanes, which the walk tests on the
  // exact center differences (see the header).
  constexpr double kEdgeEps = 1e-12;
  const int reach = w.reach_blocks;
  const double r_blocks = w.out_thresh_m / cfg.block_m;
  const int dr_max = std::min(reach, rows - 1);
  const int dc_max = std::min(reach, cols - 1);
  s.ring.assign(2 * static_cast<std::size_t>(reach) + 2, RingRow{});
  resize_within(s.lanes,
                static_cast<std::size_t>(2 * dr_max + 1) *
                    static_cast<std::size_t>(2 * dc_max + 1),
                static_cast<std::size_t>(2 * rows - 1) *
                    static_cast<std::size_t>(2 * cols - 1));
  s.edge_lanes.clear();
  std::uint64_t ring_lanes = 0;
  std::size_t n = 0;
  for (int dr = -reach;; ++dr) {
    RingRow& row = s.ring[static_cast<std::size_t>(dr + reach)];
    row.lane = n;
    row.edge = s.edge_lanes.size();
    if (dr > reach) break;  // the last entry only ends the last row
    const double rem = r_blocks * r_blocks - static_cast<double>(dr) * dr;
    if (rem > 0.0) {  // else lim stays 0
      // Capped at the reach in double before the cast, as in window_terms.
      const double root = std::sqrt(rem);
      row.lim =
          std::min(reach, static_cast<int>(root < reach ? root : reach) + 1);
    }
    ring_lanes += static_cast<std::uint64_t>(2 * row.lim + 1);
    if (dr < -dr_max || dr > dr_max) continue;
    const int lim = std::min(row.lim, cols - 1);
    const double ry = static_cast<double>(dr) * cfg.block_m;
    for (int dc = -lim; dc <= lim; ++dc) {
      // Exact block-lattice displacement (the grid is uniform, so the
      // candidate-minus-previous center difference is dc/dr blocks up to
      // rounding; the lanes snap to the lattice).
      const double rx = static_cast<double>(dc) * cfg.block_m;
      const double step_m = std::sqrt(rx * rx + ry * ry);
      const bool edge =
          std::fabs(step_m - w.out_thresh_m) < kEdgeEps ||
          std::fabs(step_m + w.quarter_block_m - w.lower_m) < kEdgeEps;
      if (!edge && (step_m > w.out_thresh_m ||
                    step_m + w.quarter_block_m < w.lower_m)) {
        continue;  // annulus-rejected
      }
      double logw = 0.0;
      if (w.use_dir) {
        // Direction-line term of Eq. 11: perpendicular distance from the
        // candidate to the line through the previous location along the
        // estimated direction, normalized by the max displacement.
        // Candidates behind the motion direction are inconsistent with the
        // estimated heading (half-plane factor 1/4).
        const double perp = std::fabs(rx * w.dir.y - ry * w.dir.x);
        logw += std::log(std::max(1.0 - perp / w.dmax_m, kWeightFloor));
        if (rx * w.dir.x + ry * w.dir.y < w.back_thresh_m) {
          logw += kLogQuarter;
        }
      }
      if (w.idle_step_penalty) {
        // No direction estimate this window: tie-break toward small steps
        // (an undetected motion is a small motion), otherwise the annulus
        // blocks tie and the argmax drifts.
        const double frac = step_m / w.upper_m;
        logw += -kUnobservedStepPenalty * frac * frac;
      }
      if (edge) {
        s.edge_lanes.push_back({dc, logw});
      } else {
        s.lanes[n++] = {dc, logw};
      }
    }
  }
  s.lanes.resize(n);
  return ring_lanes;
}

/// The largest non-negative double that `holds`, or -1 if 0 does not, for
/// a predicate that holds up to some value and not above it. Non-negative
/// doubles order as their bit patterns, so it bisects those, first within
/// 16 ulps of `guess`, where the boundary lies.
template <class Pred>
double last_holding(double guess, Pred holds) {
  using Bits = std::uint64_t;
  const auto at = [&](Bits b) { return holds(std::bit_cast<double>(b)); };
  const Bits inf = std::bit_cast<Bits>(std::numeric_limits<double>::infinity());
  const Bits g = std::bit_cast<Bits>(
      std::clamp(guess, 0.0, std::numeric_limits<double>::max()));
  if (!at(0)) return -1.0;
  Bits lo = g > 16 && at(g - 16) ? g - 16 : 0;           // at(lo)
  Bits hi = g + 16 < inf && !at(g + 16) ? g + 16 : inf;  // !at(hi)
  while (hi - lo > 1) {
    const Bits mid = lo + (hi - lo) / 2;
    (at(mid) ? lo : hi) = mid;
  }
  return std::bit_cast<double>(lo);
}

/// Scores one lane from the parents at box columns [j_lo, j_end) of one
/// parent row onto the cells dc columns over in one candidate row, and
/// merges each score. The merge is order-independent: an accepted score
/// takes a cell when it is greater than the cell's best, or equal from a
/// lower parent index, and the first parent is the least accepting index.
/// A parent that scores -inf, as a hole does, is not accepted. A knife-edge
/// lane (kEdge) adds -inf to a parent (at board column c_lo + j) whose
/// squared center-difference step fails `sq`, and 0 to the rest, which
/// moves no bit of a score: its second term is never -0. Straight-line
/// selects with no early exit, so GCC vectorizes the loop at -O3. Returns
/// the accepted count.
template <bool kEdge>
unsigned merge_lane_row(const float* __restrict plp,
                        const std::int32_t* __restrict pidx,
                        const double* __restrict hyp, float* __restrict best,
                        std::int32_t* __restrict best_parent,
                        std::int32_t* __restrict first, int j_lo, int j_end,
                        const Lane& l, const PhaseField& field, int c_lo,
                        double ddy, const SquaredAnnulus& sq) {
  const int dc = l.dc;
  const double logw = l.logw;
  unsigned accepted = 0;
  for (int j = j_lo; j < j_end; ++j) {
    const int k = j + dc;
    float p = plp[j];
    if constexpr (kEdge) {
      const double ddx = field.center_x(c_lo + j) - field.center_x(c_lo + k);
      const double step_sq = ddx * ddx + ddy * ddy;
      p += (step_sq <= sq.out_sq) & (step_sq > sq.lower_sq) ? 0.0f : kNegInfF;
    }
    const float lp = static_cast<float>(
        static_cast<double>(p) + std::max(hyp[k] + logw, kLogWeightFloor));
    const bool acc = lp != kNegInfF;
    const std::int32_t parent = pidx[j];
    const float b = best[k];
    const std::int32_t bp = best_parent[k];
    const std::int32_t f = first[k];
    const bool take = acc & ((lp > b) | ((lp == b) & (parent < bp)));
    best[k] = take ? lp : b;
    best_parent[k] = take ? parent : bp;
    first[k] = acc & (parent < f) ? parent : f;
    accepted += acc ? 1u : 0u;
  }
  return accepted;
}

}  // namespace

SquaredAnnulus squared_annulus(double out_thresh_m, double quarter_block_m,
                               double lower_m) {
  const double inner_m = lower_m - quarter_block_m;
  return {last_holding(out_thresh_m * out_thresh_m, [&](double s) {
            return !(std::sqrt(s) > out_thresh_m);
          }),
          last_holding(inner_m * inner_m, [&](double s) {
            return std::sqrt(s) + quarter_block_m < lower_m;
          })};
}

void expand_beam(const PolarDrawConfig& cfg, const PhaseField& field,
                 const TrackObservation& o, const Beam& prev, Beam& cand,
                 ExpandStats& stats) {
  ExpandScratch& s = tls_scratch;
  const int cols = field.cols();
  const int rows = field.rows();
  const WindowTerms w = window_terms(cfg, cols, rows, o);
  const std::uint64_t ring_lanes = fill_ring(cfg, w, cols, rows, s);
  cand.resize(0);
  const int reach = w.reach_blocks;

  // Each parent row's hull, its leftmost and rightmost parent column, and
  // the lanes visited: each parent's ring lanes on the board.
  const std::size_t n_rows = static_cast<std::size_t>(rows);
  s.parent_row_lo.assign(n_rows, cols);
  s.parent_row_hi.assign(n_rows, -1);
  int pr_lo = rows, pr_hi = -1;
  std::uint64_t visited = 0;
  const std::size_t n_parents = prev.size();
  for (std::size_t a = 0; a < n_parents; ++a) {
    const int pr = prev.cell[a] / cols;
    const int pc = prev.cell[a] % cols;
    const std::size_t prz = static_cast<std::size_t>(pr);
    s.parent_row_lo[prz] = std::min(s.parent_row_lo[prz], pc);
    s.parent_row_hi[prz] = std::max(s.parent_row_hi[prz], pc);
    pr_lo = std::min(pr_lo, pr);
    pr_hi = std::max(pr_hi, pr);
    if (pr >= reach && pr + reach < rows && pc >= reach && pc + reach < cols) {
      visited += ring_lanes;  // the whole ring lies on the board
      continue;
    }
    const int dr_hi = std::min(reach, rows - 1 - pr);
    for (int dr = std::max(-reach, -pr); dr <= dr_hi; ++dr) {
      const int lim = s.ring[static_cast<std::size_t>(dr + reach)].lim;
      visited += static_cast<std::uint64_t>(std::min(lim, cols - 1 - pc) -
                                            std::max(-lim, -pc) + 1);
    }
  }
  if (pr_hi < pr_lo) return;  // empty beam: nothing to expand

  // Union of per-row column spans touched by this window's beam, bounding
  // the hyperbola rows to (a superset of) the candidate set: each occupied
  // parent row's hull, widened by the per-row column reach. The box
  // bounds the spans.
  s.row_span_lo.assign(n_rows, cols);
  s.row_span_hi.assign(n_rows, -1);
  int c_lo = cols, c_hi = -1;
  for (int pr = pr_lo; pr <= pr_hi; ++pr) {
    const int pc_lo = s.parent_row_lo[static_cast<std::size_t>(pr)];
    const int pc_hi = s.parent_row_hi[static_cast<std::size_t>(pr)];
    if (pc_lo > pc_hi) continue;
    const int dr_hi = std::min(reach, rows - 1 - pr);
    for (int dr = std::max(-reach, -pr); dr <= dr_hi; ++dr) {
      const int lim = s.ring[static_cast<std::size_t>(dr + reach)].lim;
      const std::size_t nrz = static_cast<std::size_t>(pr + dr);
      s.row_span_lo[nrz] =
          std::min(s.row_span_lo[nrz], std::max(0, pc_lo - lim));
      s.row_span_hi[nrz] =
          std::max(s.row_span_hi[nrz], std::min(cols - 1, pc_hi + lim));
      c_lo = std::min(c_lo, s.row_span_lo[nrz]);
      c_hi = std::max(c_hi, s.row_span_hi[nrz]);
    }
  }
  const int r_lo = std::max(0, pr_lo - reach);
  const int r_hi = std::min(rows - 1, pr_hi + reach);
  // Box rows are kPad columns wider than the box, and a box never spans
  // more than the board.
  const std::size_t bw = static_cast<std::size_t>(c_hi - c_lo + 1 + kPad);
  const std::size_t box = static_cast<std::size_t>(r_hi - r_lo + 1) * bw;
  const std::size_t board_w = static_cast<std::size_t>(cols + kPad);
  resize_within(s.box_logp, box, n_rows * board_w);
  resize_within(s.box_parent, box, n_rows * board_w);
  resize_within(s.box_first, box, n_rows * board_w);
  resize_within(s.parent_logp, box, n_rows * board_w);
  resize_within(s.parent_index, box, n_rows * board_w);
  resize_within(s.hyper_row, bw, board_w);
  const SquaredAnnulus sq =
      s.edge_lanes.empty()
          ? SquaredAnnulus{}
          : squared_annulus(w.out_thresh_m, w.quarter_block_m, w.lower_m);

  // The parent grid: prev scattered over each parent row's hull and the
  // kPad columns past it, whose holes score -inf under index kNoParent.
  const auto at = [&](int r, int c) {
    return static_cast<std::size_t>(r - r_lo) * bw +
           static_cast<std::size_t>(c - c_lo);
  };
  for (int pr = pr_lo; pr <= pr_hi; ++pr) {
    const int lo = s.parent_row_lo[static_cast<std::size_t>(pr)];
    const int hi = s.parent_row_hi[static_cast<std::size_t>(pr)];
    if (lo > hi) continue;
    const std::size_t len = static_cast<std::size_t>(hi - lo + kPad) + 1;
    std::fill_n(&s.parent_logp[at(pr, lo)], len, kNegInfF);
    std::fill_n(&s.parent_index[at(pr, lo)], len, kNoParent);
  }
  for (std::size_t a = 0; a < n_parents; ++a) {
    const std::size_t i = at(prev.cell[a] / cols, prev.cell[a] % cols);
    s.parent_logp[i] = prev.logp[a];
    s.parent_index[i] = static_cast<std::int32_t>(a);
  }

  // The row walk, candidate row outermost: each ring lane runs once over
  // every parent row it reaches this row from, across the parent columns
  // whose cell it puts on the board. Each (parent, cell) pair meets once,
  // so the order-independent merge makes the walk order free.
  const int dr_max = std::min(reach, rows - 1);
  const double inv_4pi = 1.0 / (4.0 * kPi);
  std::uint64_t accepted = 0;
  // parent_count[a + 1]: cells whose first accepting parent is prev's a.
  s.parent_count.assign(n_parents + 1, 0);
  for (int nr = r_lo; nr <= r_hi; ++nr) {
    const int lo = s.row_span_lo[static_cast<std::size_t>(nr)];
    const int hi = s.row_span_hi[static_cast<std::size_t>(nr)];
    if (lo > hi) continue;
    float* best = &s.box_logp[at(nr, c_lo)];
    std::int32_t* best_parent = &s.box_parent[at(nr, c_lo)];
    std::int32_t* first = &s.box_first[at(nr, c_lo)];
    // Only cells inside the spans can be taken, so only they reset.
    const int j0 = lo - c_lo, j1 = hi - c_lo;
    std::fill(best + j0, best + j1 + 1, kNegInfF);
    std::fill(first + j0, first + j1 + 1, kNoParent);
    // Eq. 11 hyperbola term 1 - |dtheta_meas - dtheta(x,y)| / (4*pi): the
    // circular distance of two phases in [0, 2*pi) is min(|d|, 2*pi - |d|),
    // and log(term^sharpness) = sharpness * log(term).
    double* hyp = s.hyper_row.data();
    const double* phase = field.phase_row(nr) + c_lo;
    std::fill(hyp + j0, hyp + j1 + 1, 0.0);
    for (int j = j0; w.use_hyper && j <= j1; ++j) {
      const double d = std::fabs(phase[j] - w.meas_rad);
      const double mismatch = std::min(d, kTwoPi - d);
      const double term = std::max(1.0 - mismatch * inv_4pi, kWeightFloor);
      hyp[j] = cfg.hyperbola_sharpness * std::log(term);
    }
    const int dr_hi = std::min(dr_max, nr - pr_lo);
    for (int dr = std::max(-dr_max, nr - pr_hi); dr <= dr_hi; ++dr) {
      const int pr = nr - dr;
      const int plo = s.parent_row_lo[static_cast<std::size_t>(pr)];
      const int phi = s.parent_row_hi[static_cast<std::size_t>(pr)];
      if (plo > phi) continue;
      const float* plp = &s.parent_logp[at(pr, c_lo)];
      const std::int32_t* pidx = &s.parent_index[at(pr, c_lo)];
      const double ddy = field.center_y(pr) - field.center_y(nr);
      const RingRow& row = s.ring[static_cast<std::size_t>(dr + reach)];
      const RingRow& next = s.ring[static_cast<std::size_t>(dr + reach + 1)];
      for (std::size_t i = row.lane; i < next.lane; ++i) {
        const Lane& l = s.lanes[i];
        const int j_lo = std::max(plo, -l.dc) - c_lo;
        const int j_hi = std::min(phi, cols - 1 - l.dc) - c_lo;
        // A lane the hull ends runs on into the holes past it, to a whole
        // number of vectors; one the board ends stops there.
        const int j_end = phi + l.dc < cols
                              ? j_lo + ((j_hi - j_lo + 1 + kPad) & ~kPad)
                              : j_hi + 1;
        accepted += merge_lane_row<false>(plp, pidx, hyp, best, best_parent,
                                          first, j_lo, j_end, l, field, c_lo,
                                          ddy, sq);
      }
      for (std::size_t i = row.edge; i < next.edge; ++i) {
        const Lane& l = s.edge_lanes[i];
        accepted += merge_lane_row<true>(
            plp, pidx, hyp, best, best_parent, first,
            std::max(plo, -l.dc) - c_lo,
            std::min(phi, cols - 1 - l.dc) - c_lo + 1, l, field, c_lo, ddy, sq);
      }
    }
    // Every lane into this row has merged: count its first touches.
    for (int j = j0; j <= j1; ++j) {
      if (first[j] == kNoParent) continue;
      ++s.parent_count[static_cast<std::size_t>(first[j]) + 1];
    }
  }
  stats.expansions += accepted;
  stats.annulus_rejected += visited - accepted;

  // Emission in first-touch traversal order (ascending first accepting
  // parent, then row, then column): a counting sort on the first parent
  // over a row-major scan of the spans.
  std::partial_sum(s.parent_count.begin(), s.parent_count.end(),
                   s.parent_count.begin());
  cand.resize(s.parent_count[n_parents]);
  for (int nr = r_lo; nr <= r_hi; ++nr) {
    const int lo = s.row_span_lo[static_cast<std::size_t>(nr)];
    const int hi = s.row_span_hi[static_cast<std::size_t>(nr)];
    for (int nc = lo; nc <= hi; ++nc) {
      const std::size_t b = at(nr, nc);
      const std::int32_t f = s.box_first[b];
      if (f == kNoParent) continue;
      const std::size_t slot = s.parent_count[static_cast<std::size_t>(f)]++;
      cand.cell[slot] = nr * cols + nc;
      cand.logp[slot] = s.box_logp[b];
      cand.parent[slot] = s.box_parent[b];
    }
  }
}

}  // namespace polardraw::core
