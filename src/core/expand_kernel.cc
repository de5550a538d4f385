#include "core/expand_kernel.h"

// polarlint: hot-path -- no node-based hash maps in the decode loop.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/angles.h"
#include "common/vec.h"

namespace polardraw::core {

namespace {
constexpr double kWeightFloor = 1e-6;  // keeps log-probabilities finite
const double kLogWeightFloor = std::log(kWeightFloor);
const double kLogQuarter = std::log(0.25);
constexpr float kNegInfF = -std::numeric_limits<float>::infinity();

/// The exact Eq. 8 annulus test on a block-center difference, with a
/// quarter-block tolerance so the discretization cannot strand the chain
/// while the phase-derived lower bound stays binding. Only knife-edge
/// lanes run it (see the header).
inline bool annulus_holds(double ddx, double ddy, double out_thresh_m,
                          double quarter_block_m, double lower_m) {
  const double step_m = std::sqrt(ddx * ddx + ddy * ddy);
  return !(step_m > out_thresh_m || step_m + quarter_block_m < lower_m);
}

/// The box merge rule, shared by every lane, for the cell at `i` of the
/// merge arrays: an accepted lane takes the cell when its score is
/// strictly greater. Scores are finite and a cell starts at -inf, so a
/// first touch always takes it; saying so lets GCC store all three arrays
/// in one block on a first touch (without it the decode ran 8% slower).
/// The first parent is stored under an `if`: as a ternary, GCC 12 turned
/// it into a load and a store on every lane of a walk (board-spanning
/// windows ran about 25% slower). Counts accepted lanes and first touches.
inline void merge_lane(float lp, bool acc, std::int32_t parent, float* best,
                       std::int32_t* best_parent, std::int32_t* first,
                       std::ptrdiff_t i, std::uint64_t& accepted,
                       std::size_t& first_touches) {
  const bool first_touch = acc && first[i] < 0;
  const bool take = first_touch || (acc && lp > best[i]);
  best[i] = take ? lp : best[i];
  best_parent[i] = take ? parent : best_parent[i];
  if (first_touch) first[i] = parent;
  accepted += acc ? 1u : 0u;
  first_touches += first_touch ? 1u : 0u;
}

/// Per-window hoists, computed exactly as the historical in-loop hoists
/// so the knife-edge re-test reproduces its annulus decisions.
struct WindowTerms {
  double lower_m = 0.0;
  double upper_m = 0.0;
  double out_thresh_m = 0.0;
  double quarter_block_m = 0.0;
  int reach_blocks = 1;
  bool use_hyper = false;
  double meas_rad = 0.0;
  bool use_dir = false;
  Vec2 dir;
  double dmax_m = 0.0;
  double back_thresh_m = 0.0;
  bool idle_step_penalty = false;
};

// The ring as lane lists, row by row in ascending column.
struct Lane {
  std::ptrdiff_t off;  // dr * box_w + dc
  double logw;         // direction and idle log-weight
};
struct EdgeLane {
  std::ptrdiff_t off;
  double logw;
  int dr, dc;  // for the board check and the center-difference re-test
};
/// One row dr of the ring: its column reach, and where its lanes sit. The
/// row's lanes are the columns b <= |dc| <= a, in ascending order from
/// lanes[first]; a < b when it has none.
struct RingRow {
  int lim = 0;  // dc_lim[|dr|]
  int a = -1, b = 0;
  std::size_t first = 0;
};

/// Every buffer one window needs besides expand_beam's arguments. A thread
/// holds one set and every decoder it runs shares it: each buffer is reset
/// or overwritten before the window reads it, so nothing carries from one
/// window, or one decoder, to the next. The buffers grow to the largest
/// window the thread has expanded and never shrink.
struct ExpandScratch {
  std::vector<RingRow> ring;              // per dr + reach
  std::vector<int> parent_row_lo, parent_row_hi;  // parent columns per row
  std::vector<int> row_span_lo, row_span_hi;      // touched columns per row
  std::vector<Lane> lanes;
  std::vector<EdgeLane> edge_lanes;
  // Per-cell arrays over the bounding box of the row spans.
  std::vector<double> hyper_logw;         // hyperbola log-weight
  std::vector<float> box_logp;            // best log-prob so far, -inf
  std::vector<std::int32_t> box_parent;   // its parent (index into prev)
  std::vector<std::int32_t> box_first;    // first accepting parent, -1
  std::vector<std::size_t> parent_count;  // emission counting sort
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

/// Sets each ring row's column reach and returns the ring's lane count.
std::uint64_t fill_dc_limits(const PolarDrawConfig& cfg, const WindowTerms& w,
                             ExpandScratch& s) {
  // Integer annulus bound: a candidate |dc| blocks away horizontally and
  // |dr| vertically is at least ~sqrt(dc^2+dr^2) blocks out, so columns
  // beyond this limit cannot pass the exact outer-radius test (the +1
  // absorbs block-center rounding). Rows stay within [-reach, reach].
  const int reach = w.reach_blocks;
  const double r_blocks = w.out_thresh_m / cfg.block_m;
  s.ring.assign(2 * static_cast<std::size_t>(reach) + 1, RingRow{});
  std::uint64_t ring_lanes = 0;
  for (int dr = -reach; dr <= reach; ++dr) {
    RingRow& row = s.ring[static_cast<std::size_t>(dr + reach)];
    const double rem = r_blocks * r_blocks - static_cast<double>(dr) * dr;
    if (rem > 0.0) {  // else lim stays 0
      // Capped at the reach in double before the cast, as in window_terms.
      const double root = std::sqrt(rem);
      row.lim =
          std::min(reach, static_cast<int>(root < reach ? root : reach) + 1);
    }
    ring_lanes += static_cast<std::uint64_t>(2 * row.lim + 1);
  }
  return ring_lanes;
}

/// Over the union of per-row column spans touched by this window's
/// beam: evaluates the per-cell hyperbola log-weight and resets the merge
/// arrays.
void fill_box_rows(const PolarDrawConfig& cfg, const PhaseField& field,
                   const WindowTerms& w, int r_lo, int r_hi, int c_lo,
                   int box_w, ExpandScratch& s) {
  const double inv_4pi = 1.0 / (4.0 * kPi);
  const double sharp = cfg.hyperbola_sharpness;
  for (int nr = r_lo; nr <= r_hi; ++nr) {
    const int lo = s.row_span_lo[static_cast<std::size_t>(nr)];
    const int hi = s.row_span_hi[static_cast<std::size_t>(nr)];
    if (lo > hi) continue;
    const std::size_t off =
        static_cast<std::size_t>(nr - r_lo) * static_cast<std::size_t>(box_w) +
        static_cast<std::size_t>(lo - c_lo);
    const std::size_t len = static_cast<std::size_t>(hi - lo) + 1;
    // Only cells inside the spans can be touched, so only they reset.
    std::fill_n(&s.box_logp[off], len, kNegInfF);
    std::fill_n(&s.box_first[off], len, -1);
    double* out = &s.hyper_logw[off];
    if (!w.use_hyper) {
      std::fill(out, out + len, 0.0);
      continue;
    }
    const double* phase = field.phase_row(nr) + lo;
    // Eq. 11 hyperbola term 1 - |dtheta_meas - dtheta(x,y)| / (4*pi), with
    // a branchless circular distance: phase and meas both live in
    // [0, 2*pi), so it is min(|d|, 2*pi - |d|). log(term^sharp) =
    // sharp * log(term), so no pow is needed.
    for (std::size_t i = 0; i < len; ++i) {
      const double d = std::fabs(phase[i] - w.meas_rad);
      const double mismatch = std::min(d, kTwoPi - d);
      const double term = std::max(1.0 - mismatch * inv_4pi, kWeightFloor);
      out[i] = sharp * std::log(term);
    }
  }
}

/// Builds the window's lanes, with box offsets for a box `box_w` wide, row
/// by row in ascending column: every displacement of the ring an on-board
/// parent can use (|dr| < rows, |dc| < cols) with its direction and idle
/// log-weight, the annulus-valid ones in `lanes`, the knife-edge ones in
/// `edge_lanes`, the rejected ones left out. Records each row's lanes in
/// `ring`.
void fill_lanes(const PolarDrawConfig& cfg, const WindowTerms& w, int cols,
                int rows, int box_w, ExpandScratch& s) {
  // Knife-edge displacements -- lattice distance within kEdgeEps of either
  // annulus threshold -- go to edge_lanes, and the walk re-tests them with
  // the exact center-difference arithmetic (see the header: upper_m is
  // often an exact block multiple, putting out_thresh_m dead on the
  // lattice, where position-dependent rounding noise of ~1e-16 decides
  // acceptance cell by cell).
  constexpr double kEdgeEps = 1e-12;
  const int reach = w.reach_blocks;
  const int dr_max = std::min(reach, rows - 1);
  const int dc_max = std::min(reach, cols - 1);
  resize_within(s.lanes,
                static_cast<std::size_t>(2 * dr_max + 1) *
                    static_cast<std::size_t>(2 * dc_max + 1),
                static_cast<std::size_t>(2 * rows - 1) *
                    static_cast<std::size_t>(2 * cols - 1));
  s.edge_lanes.clear();
  std::size_t n = 0;
  for (int dr = -dr_max; dr <= dr_max; ++dr) {
    RingRow& row = s.ring[static_cast<std::size_t>(dr + reach)];
    row.first = n;
    row.b = cols;
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
      const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(dr) * box_w + dc;
      if (edge) {
        s.edge_lanes.push_back({off, logw, dr, dc});
        continue;
      }
      s.lanes[n++] = {off, logw};
      row.a = std::max(row.a, std::abs(dc));
      row.b = std::min(row.b, std::abs(dc));
    }
  }
  s.lanes.resize(n);
}

}  // namespace

void expand_beam(const PolarDrawConfig& cfg, const PhaseField& field,
                 const TrackObservation& o, const Beam& prev, Beam& cand,
                 ExpandStats& stats) {
  ExpandScratch& s = tls_scratch;
  const int cols = field.cols();
  const int rows = field.rows();
  const WindowTerms w = window_terms(cfg, cols, rows, o);
  // Every lane of the ring, rejected ones too.
  const std::uint64_t ring_lanes = fill_dc_limits(cfg, w, s);
  cand.resize(0);
  const int reach = w.reach_blocks;

  // Union of per-row column spans touched by this window's beam, bounding
  // the hyperbola precompute to (a superset of) the candidate set. It is
  // the hull of the per-parent spans: each occupied parent row's leftmost
  // and rightmost parent column, widened by the per-row column reach.
  const std::size_t n_rows = static_cast<std::size_t>(rows);
  s.parent_row_lo.assign(n_rows, cols);
  s.parent_row_hi.assign(n_rows, -1);
  int pr_lo = rows, pr_hi = -1;
  const std::size_t n_parents = prev.size();
  for (std::size_t a = 0; a < n_parents; ++a) {
    const std::int32_t pcell = prev.cell[a];
    const int pr = pcell / cols;
    const int pc = pcell % cols;
    const std::size_t prz = static_cast<std::size_t>(pr);
    s.parent_row_lo[prz] = std::min(s.parent_row_lo[prz], pc);
    s.parent_row_hi[prz] = std::max(s.parent_row_hi[prz], pc);
    pr_lo = std::min(pr_lo, pr);
    pr_hi = std::max(pr_hi, pr);
  }
  if (pr_hi < pr_lo) return;  // empty beam: nothing to expand

  s.row_span_lo.assign(n_rows, cols);
  s.row_span_hi.assign(n_rows, -1);
  for (int pr = pr_lo; pr <= pr_hi; ++pr) {
    const int pc_lo = s.parent_row_lo[static_cast<std::size_t>(pr)];
    const int pc_hi = s.parent_row_hi[static_cast<std::size_t>(pr)];
    if (pc_lo > pc_hi) continue;
    const int dr_lo = std::max(-reach, -pr);
    const int dr_hi = std::min(reach, rows - 1 - pr);
    for (int dr = dr_lo; dr <= dr_hi; ++dr) {
      const int lim = s.ring[static_cast<std::size_t>(dr + reach)].lim;
      const std::size_t nrz = static_cast<std::size_t>(pr + dr);
      s.row_span_lo[nrz] =
          std::min(s.row_span_lo[nrz], std::max(0, pc_lo - lim));
      s.row_span_hi[nrz] =
          std::max(s.row_span_hi[nrz], std::min(cols - 1, pc_hi + lim));
    }
  }
  const int r_lo = std::max(0, pr_lo - reach);
  const int r_hi = std::min(rows - 1, pr_hi + reach);

  int c_lo = cols, c_hi = -1;
  for (int nr = r_lo; nr <= r_hi; ++nr) {
    const std::size_t nrz = static_cast<std::size_t>(nr);
    if (s.row_span_lo[nrz] <= s.row_span_hi[nrz]) {
      c_lo = std::min(c_lo, s.row_span_lo[nrz]);
      c_hi = std::max(c_hi, s.row_span_hi[nrz]);
    }
  }
  const int box_w = c_hi - c_lo + 1;
  const std::size_t box = static_cast<std::size_t>(r_hi - r_lo + 1) *
                          static_cast<std::size_t>(box_w);
  // A box never spans more than the board.
  resize_within(s.hyper_logw, box, field.cells());
  resize_within(s.box_logp, box, field.cells());
  resize_within(s.box_parent, box, field.cells());
  resize_within(s.box_first, box, field.cells());
  fill_box_rows(cfg, field, w, r_lo, r_hi, c_lo, box_w, s);
  fill_lanes(cfg, w, cols, rows, box_w, s);
  const Lane* const lanes = s.lanes.data();

  const std::size_t bw = static_cast<std::size_t>(box_w);
  std::uint64_t visited = 0, accepted = 0;
  // parent_count[a + 1]: cells first accepted by prev's node a.
  s.parent_count.assign(n_parents + 1, 0);

  for (std::size_t a = 0; a < n_parents; ++a) {
    const std::int32_t pcell = prev.cell[a];
    const int pr = pcell / cols;
    const int pc = pcell % cols;
    const double plp = static_cast<double>(prev.logp[a]);
    const auto parent = static_cast<std::int32_t>(a);
    std::size_t first_touches = 0;
    const std::size_t base = static_cast<std::size_t>(pr - r_lo) * bw +
                             static_cast<std::size_t>(pc - c_lo);
    const double* hyp = s.hyper_logw.data() + base;
    float* best = s.box_logp.data() + base;
    std::int32_t* best_parent = s.box_parent.data() + base;
    std::int32_t* first = s.box_first.data() + base;

    // Scores and merges the lanes [l, end): the one loop body every lane
    // but a knife-edge one runs. Scoring is branchless: the weight floor
    // clamps the finite log-weight sum (exactly log(max(w, floor)) up to
    // reassociation). Forced inline, it compiles at each walk below as one
    // tight loop (DESIGN section 14).
    const auto walk = [&](const Lane* l,
                          const Lane* end) __attribute__((always_inline)) {
      for (; l != end; ++l) {
        const float lp = static_cast<float>(
            plp + std::max(hyp[l->off] + l->logw, kLogWeightFloor));
        merge_lane(lp, lp != kNegInfF, parent, best, best_parent, first,
                   l->off, accepted, first_touches);
      }
    };
    const bool clipped = pr < reach || pr + reach >= rows || pc < reach ||
                         pc + reach >= cols;
    if (!clipped) {
      // The whole ring lies on the board: every lane, in one walk. The
      // list leaves the rejected lanes out, so the parent visits the
      // ring's lane count, not the list's.
      visited += ring_lanes;
      walk(lanes, lanes + s.lanes.size());
    } else {
      // The ring crosses a board side: each on-board row walks only its
      // lanes inside the board. A row's lanes are its columns b <= |dc| <=
      // a (header), a run dc in [-a, -b] from lanes[first] and a run dc in
      // [max(b, 1), a] after it, so each run is cut to the board's columns
      // [dc_lo, dc_hi] by arithmetic.
      const int dc_lo = -pc, dc_hi = cols - 1 - pc;
      const int dr_lo = std::max(-reach, -pr);
      const int dr_hi = std::min(reach, rows - 1 - pr);
      for (int dr = dr_lo; dr <= dr_hi; ++dr) {
        const RingRow& row = s.ring[static_cast<std::size_t>(dr + reach)];
        visited += static_cast<std::uint64_t>(std::min(row.lim, dc_hi) -
                                              std::max(-row.lim, dc_lo) + 1);
        // Walks the run of columns [from, to] whose lane dc sits at
        // lanes[at + dc], cut to the board.
        const auto run = [&](int from, int to, std::ptrdiff_t at)
                             __attribute__((always_inline)) {
          from = std::max(from, dc_lo);
          to = std::min(to, dc_hi);
          if (from <= to) walk(lanes + (at + from), lanes + (at + to) + 1);
        };
        const auto f = static_cast<std::ptrdiff_t>(row.first);
        const int b1 = std::max(row.b, 1);
        run(-row.a, -row.b, f + row.a);
        run(b1, row.a, f + (row.a - row.b + 1) - b1);
      }
    }
    // Knife-edge lanes re-run the exact center-difference annulus test, so
    // the accepted set does not depend on lattice rounding.
    const double fx = field.center_x(pc);
    const double fy = field.center_y(pr);
    for (const EdgeLane& e : s.edge_lanes) {
      const int nr = pr + e.dr, nc = pc + e.dc;
      if (clipped && (nr < 0 || nr >= rows || nc < 0 || nc >= cols)) {
        continue;  // off the board
      }
      const float lp = static_cast<float>(
          plp + std::max(hyp[e.off] + e.logw, kLogWeightFloor));
      const bool acc =
          lp != kNegInfF &&
          annulus_holds(fx - field.center_x(nc), fy - field.center_y(nr),
                        w.out_thresh_m, w.quarter_block_m, w.lower_m);
      merge_lane(lp, acc, parent, best, best_parent, first, e.off, accepted,
                 first_touches);
    }
    s.parent_count[a + 1] = first_touches;
  }
  stats.expansions += accepted;
  stats.annulus_rejected += visited - accepted;

  // Emission in first-touch traversal order (ascending first accepting
  // parent, then row, then column): a counting sort on the first parent
  // over a row-major scan of the spans.
  for (std::size_t k = 1; k <= n_parents; ++k) {
    s.parent_count[k] += s.parent_count[k - 1];
  }
  cand.resize(s.parent_count[n_parents]);
  for (int nr = r_lo; nr <= r_hi; ++nr) {
    const int lo = s.row_span_lo[static_cast<std::size_t>(nr)];
    const int hi = s.row_span_hi[static_cast<std::size_t>(nr)];
    const std::size_t row0 =
        static_cast<std::size_t>(nr - r_lo) * static_cast<std::size_t>(box_w);
    for (int nc = lo; nc <= hi; ++nc) {
      const std::size_t b = row0 + static_cast<std::size_t>(nc - c_lo);
      const std::int32_t f = s.box_first[b];
      if (f < 0) continue;
      const std::size_t slot = s.parent_count[static_cast<std::size_t>(f)]++;
      cand.cell[slot] = nr * cols + nc;
      cand.logp[slot] = s.box_logp[b];
      cand.parent[slot] = s.box_parent[b];
    }
  }
}

}  // namespace polardraw::core
