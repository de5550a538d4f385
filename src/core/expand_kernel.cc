#include "core/expand_kernel.h"

// polarlint: hot-path -- no node-based hash maps in the decode loop.

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/angles.h"

namespace polardraw::core {

namespace {
constexpr double kWeightFloor = 1e-6;  // keeps log-probabilities finite
const double kLogWeightFloor = std::log(kWeightFloor);
const double kLogQuarter = std::log(0.25);
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNegInf = -kInf;
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

/// The box merge rule, shared by both walks, for the cell at `i` of the
/// merge arrays: the first accepted lane to touch a cell takes it whatever
/// its score (NaN included), and a later one replaces it only when
/// strictly greater. Counts accepted lanes and first touches.
inline void merge_lane(float lp, bool acc, std::int32_t parent, float* best,
                       std::int32_t* best_parent, std::int32_t* first,
                       std::ptrdiff_t i, std::uint64_t& accepted,
                       std::size_t& first_touches) {
  const bool first_touch = acc && first[i] < 0;
  const bool take = first_touch || (acc && lp > best[i]);
  best[i] = take ? lp : best[i];
  best_parent[i] = take ? parent : best_parent[i];
  first[i] = first_touch ? parent : first[i];
  accepted += acc ? 1u : 0u;
  first_touches += first_touch ? 1u : 0u;
}
}  // namespace

ExpandKernel::ExpandKernel(const PolarDrawConfig& cfg, const PhaseField& field)
    : cfg_(cfg),
      field_(field),
      cols_(field.cols()),
      rows_(field.rows()) {}

ExpandKernel::WindowTerms ExpandKernel::window_terms(
    const TrackObservation& o) const {
  WindowTerms w;
  // Feasible annulus in blocks. An invalid (inconsistent) distance
  // estimate degrades to "anywhere within the speed limit".
  w.lower_m = o.distance.valid ? o.distance.lower_m : 0.0;
  w.upper_m = std::max({o.distance.upper_m, w.lower_m, cfg_.block_m * 0.5});
  // No displacement leaves the grid, so the reach is capped at its larger
  // extent before the cast: a huge or non-finite bound (NaN fails the
  // comparison and takes the cap) costs one board-sized table.
  const double reach = std::ceil(w.upper_m / cfg_.block_m);
  const double grid = static_cast<double>(std::max(cols_, rows_));
  w.reach_blocks = std::max(1, static_cast<int>(reach <= grid ? reach : grid));
  w.out_thresh_m = w.upper_m + 0.5 * cfg_.block_m;
  w.quarter_block_m = 0.25 * cfg_.block_m;
  w.use_hyper =
      cfg_.use_hyperbola_constraint && o.has_phase && o.distance.valid;
  w.meas_rad = w.use_hyper ? wrap_2pi(o.distance.dtheta21) : 0.0;
  w.use_dir = o.direction.type != MotionType::kIdle &&
              o.direction.direction.norm_sq() > 0.0;
  w.dir = o.direction.direction;
  if (w.use_dir) {
    // The half-plane test below compares rx*dir.x + ry*dir.y -- a dot
    // product scaled by |dir| -- against a threshold in meters, and the
    // perpendicular-distance term divides by dmax_m assuming |dir| = 1.
    // Every in-tree producer emits unit vectors, but the contract is
    // enforced here: a non-unit direction is normalized (the tolerance
    // leaves bit-exact already-normalized vectors untouched).
    const double n2 = w.dir.norm_sq();
    if (std::fabs(n2 - 1.0) > 1e-9) w.dir = w.dir / std::sqrt(n2);
  }
  w.dmax_m = std::max(o.distance.upper_m, cfg_.block_m);
  w.back_thresh_m = -0.25 * cfg_.block_m;
  w.idle_step_penalty =
      o.direction.type == MotionType::kIdle && w.upper_m > 0.0;
  return w;
}

void ExpandKernel::fill_dc_limits(const WindowTerms& w) {
  // Integer annulus bound: a candidate |dc| blocks away horizontally and
  // |dr| vertically is at least ~sqrt(dc^2+dr^2) blocks out, so columns
  // beyond this limit cannot pass the exact outer-radius test (the +1
  // absorbs block-center rounding). Rows stay within [-reach, reach].
  const int reach = w.reach_blocks;
  const double r_blocks = w.out_thresh_m / cfg_.block_m;
  dc_lim_.assign(static_cast<std::size_t>(reach) + 1, 0);
  for (int dr = 0; dr <= reach; ++dr) {
    const double rem = r_blocks * r_blocks - static_cast<double>(dr) * dr;
    if (rem <= 0.0) continue;  // stays 0
    // Capped at the reach in double before the cast, as in window_terms.
    const double root = std::sqrt(rem);
    dc_lim_[static_cast<std::size_t>(dr)] =
        std::min(reach, static_cast<int>(root < reach ? root : reach) + 1);
  }
}

void ExpandKernel::fill_displacement_table(const WindowTerms& w) {
  const int reach = w.reach_blocks;
  const int t = 2 * reach + 1;
  const std::size_t tt =
      static_cast<std::size_t>(t) * static_cast<std::size_t>(t);
  // disp_logw_ holds the finite direction/idle log-weight (0 where the
  // displacement is annulus-rejected); the validity mask is folded into
  // the same buffer as a second plane [tt, 2*tt): 0 for valid lanes, -inf
  // for rejected ones, so a rejected candidate's score is -inf *after*
  // the weight-floor clamp instead of being resurrected by it.
  //
  // Knife-edge displacements -- lattice distance within kEdgeEps of either
  // annulus threshold -- are marked in disp_edge_ and kept valid here; the
  // merge loop re-tests them with the exact center-difference arithmetic
  // (see the header: upper_m is often an exact block multiple, putting
  // out_thresh_m dead on the lattice, where position-dependent rounding
  // noise of ~1e-16 decides acceptance cell by cell).
  constexpr double kEdgeEps = 1e-12;
  disp_logw_.assign(2 * tt, 0.0);
  disp_edge_.assign(tt, 0);
  for (int dr = -reach; dr <= reach; ++dr) {
    const std::size_t row = static_cast<std::size_t>(dr + reach);
    for (int dc = -reach; dc <= reach; ++dc) {
      const std::size_t idx = row * static_cast<std::size_t>(t) +
                              static_cast<std::size_t>(dc + reach);
      // Exact block-lattice displacement (the grid is uniform, so the
      // candidate-minus-previous center difference is dc/dr blocks up to
      // rounding; the table snaps to the lattice).
      const double rx = static_cast<double>(dc) * cfg_.block_m;
      const double ry = static_cast<double>(dr) * cfg_.block_m;
      const double step_m = std::sqrt(rx * rx + ry * ry);
      const bool edge =
          std::fabs(step_m - w.out_thresh_m) < kEdgeEps ||
          std::fabs(step_m + w.quarter_block_m - w.lower_m) < kEdgeEps;
      const bool valid = edge || (!(step_m > w.out_thresh_m) &&
                                  !(step_m + w.quarter_block_m < w.lower_m));
      double logw = 0.0;
      if (valid) {
        if (w.use_dir) {
          // Direction-line term of Eq. 11: perpendicular distance from the
          // candidate to the line through the previous location along the
          // estimated direction, normalized by the max displacement.
          // Candidates behind the motion direction are inconsistent with
          // the estimated heading (half-plane factor 1/4).
          const double perp = std::fabs(rx * w.dir.y - ry * w.dir.x);
          logw += std::log(std::max(1.0 - perp / w.dmax_m, kWeightFloor));
          if (rx * w.dir.x + ry * w.dir.y < w.back_thresh_m) {
            logw += kLogQuarter;
          }
        }
        if (w.idle_step_penalty) {
          // No direction estimate this window: tie-break toward small
          // steps (an undetected motion is a small motion), otherwise the
          // annulus blocks tie and the argmax drifts.
          const double frac = step_m / w.upper_m;
          logw += -cfg_.unobserved_step_penalty * frac * frac;
        }
      }
      disp_logw_[idx] = valid ? logw : 0.0;
      disp_logw_[tt + idx] = valid ? 0.0 : kNegInf;
      disp_edge_[idx] = edge ? 1 : 0;
    }
  }
}

bool ExpandKernel::fill_box_rows(const WindowTerms& w, int r_lo, int r_hi,
                                 int c_lo, int box_w) {
  const double inv_4pi = 1.0 / (4.0 * kPi);
  const double sharp = cfg_.hyperbola_sharpness;
  bool below_inf = true;
  for (int nr = r_lo; nr <= r_hi; ++nr) {
    const int lo = row_span_lo_[static_cast<std::size_t>(nr)];
    const int hi = row_span_hi_[static_cast<std::size_t>(nr)];
    if (lo > hi) continue;
    const std::size_t off =
        static_cast<std::size_t>(nr - r_lo) * static_cast<std::size_t>(box_w) +
        static_cast<std::size_t>(lo - c_lo);
    const std::size_t len = static_cast<std::size_t>(hi - lo) + 1;
    // Only cells inside the spans can be touched, so only they reset.
    std::fill_n(&box_logp_[off], len, kNegInfF);
    std::fill_n(&box_first_[off], len, -1);
    double* out = &hyper_logw_[off];
    if (!w.use_hyper) {
      std::fill(out, out + len, 0.0);
      continue;
    }
    const double* phase = field_.phase_row(nr) + lo;
    // Eq. 11 hyperbola term 1 - |dtheta_meas - dtheta(x,y)| / (4*pi), with
    // a branchless circular distance: phase and meas both live in
    // [0, 2*pi), so it is min(|d|, 2*pi - |d|). log(term^sharp) =
    // sharp * log(term), so no pow is needed.
    for (std::size_t i = 0; i < len; ++i) {
      const double d = std::fabs(phase[i] - w.meas_rad);
      const double mismatch = std::min(d, kTwoPi - d);
      const double term = std::max(1.0 - mismatch * inv_4pi, kWeightFloor);
      out[i] = sharp * std::log(term);
      if (!(out[i] < kInf)) below_inf = false;
    }
  }
  return below_inf;
}

void ExpandKernel::fill_lanes(int reach, int box_w) {
  const int t = 2 * reach + 1;
  const std::size_t tt =
      static_cast<std::size_t>(t) * static_cast<std::size_t>(t);
  lanes_.clear();
  edge_lanes_.clear();
  ring_lanes_ = 0;
  for (int dr = -reach; dr <= reach; ++dr) {
    const int lim = dc_lim_[static_cast<std::size_t>(dr < 0 ? -dr : dr)];
    ring_lanes_ += static_cast<std::uint64_t>(2 * lim + 1);
    for (int dc = -lim; dc <= lim; ++dc) {
      const std::size_t k =
          static_cast<std::size_t>(dr + reach) * static_cast<std::size_t>(t) +
          static_cast<std::size_t>(dc + reach);
      if (disp_logw_[tt + k] != 0.0) continue;  // annulus-rejected
      const std::ptrdiff_t off =
          static_cast<std::ptrdiff_t>(dr) * box_w + dc;
      if (disp_edge_[k] != 0) {
        edge_lanes_.push_back({off, disp_logw_[k], dr, dc});
      } else {
        lanes_.push_back({off, disp_logw_[k]});
      }
    }
  }
}

void ExpandKernel::expand(const TrackObservation& o, const Beam& prev,
                          Beam& cand, ExpandStats& stats) {
  const WindowTerms w = window_terms(o);
  fill_dc_limits(w);
  cand.resize(0);
  const int reach = w.reach_blocks;
  const int t = 2 * reach + 1;
  fill_displacement_table(w);

  // Union of per-row column spans touched by this window's beam, bounding
  // the hyperbola precompute to (a superset of) the candidate set. It is
  // the hull of the per-parent spans: each occupied parent row's leftmost
  // and rightmost parent column, widened by the per-row column reach.
  const std::size_t rows = static_cast<std::size_t>(rows_);
  parent_row_lo_.assign(rows, cols_);
  parent_row_hi_.assign(rows, -1);
  int pr_lo = rows_, pr_hi = -1;
  const std::size_t n_parents = prev.size();
  for (std::size_t a = 0; a < n_parents; ++a) {
    const std::int32_t pcell = prev.cell[a];
    const int pr = pcell / cols_;
    const int pc = pcell % cols_;
    const std::size_t prz = static_cast<std::size_t>(pr);
    parent_row_lo_[prz] = std::min(parent_row_lo_[prz], pc);
    parent_row_hi_[prz] = std::max(parent_row_hi_[prz], pc);
    pr_lo = std::min(pr_lo, pr);
    pr_hi = std::max(pr_hi, pr);
  }
  if (pr_hi < pr_lo) return;  // empty beam: nothing to expand

  row_span_lo_.assign(rows, cols_);
  row_span_hi_.assign(rows, -1);
  for (int pr = pr_lo; pr <= pr_hi; ++pr) {
    const int pc_lo = parent_row_lo_[static_cast<std::size_t>(pr)];
    const int pc_hi = parent_row_hi_[static_cast<std::size_t>(pr)];
    if (pc_lo > pc_hi) continue;
    const int dr_lo = std::max(-reach, -pr);
    const int dr_hi = std::min(reach, rows_ - 1 - pr);
    for (int dr = dr_lo; dr <= dr_hi; ++dr) {
      const int lim = dc_lim_[static_cast<std::size_t>(dr < 0 ? -dr : dr)];
      const std::size_t nrz = static_cast<std::size_t>(pr + dr);
      row_span_lo_[nrz] =
          std::min(row_span_lo_[nrz], std::max(0, pc_lo - lim));
      row_span_hi_[nrz] =
          std::max(row_span_hi_[nrz], std::min(cols_ - 1, pc_hi + lim));
    }
  }
  const int r_lo = std::max(0, pr_lo - reach);
  const int r_hi = std::min(rows_ - 1, pr_hi + reach);

  int c_lo = cols_, c_hi = -1;
  for (int nr = r_lo; nr <= r_hi; ++nr) {
    const std::size_t nrz = static_cast<std::size_t>(nr);
    if (row_span_lo_[nrz] <= row_span_hi_[nrz]) {
      c_lo = std::min(c_lo, row_span_lo_[nrz]);
      c_hi = std::max(c_hi, row_span_hi_[nrz]);
    }
  }
  const int box_w = c_hi - c_lo + 1;
  const std::size_t box = static_cast<std::size_t>(r_hi - r_lo + 1) *
                          static_cast<std::size_t>(box_w);
  hyper_logw_.resize(box);
  box_logp_.resize(box);
  box_parent_.resize(box);
  box_first_.resize(box);
  // An annulus-rejected lane scores -inf, and so is never accepted, unless
  // its parent's log-prob or its cell's hyperbola term is NaN or +inf (the
  // mask plane's -inf then yields NaN, which the merge accepts). Only then
  // can the lane lists, which leave rejected lanes out, differ from the
  // table walk, so such parents and windows take the table walk.
  const bool hyper_below_inf = fill_box_rows(w, r_lo, r_hi, c_lo, box_w);
  bool lanes_filled = false;

  const std::size_t tt =
      static_cast<std::size_t>(t) * static_cast<std::size_t>(t);
  const std::size_t bw = static_cast<std::size_t>(box_w);
  std::uint64_t visited = 0, accepted = 0;
  // parent_count_[a + 1]: cells first accepted by prev's node a.
  parent_count_.assign(n_parents + 1, 0);

  for (std::size_t a = 0; a < n_parents; ++a) {
    const std::int32_t pcell = prev.cell[a];
    const int pr = pcell / cols_;
    const int pc = pcell % cols_;
    const double plp = static_cast<double>(prev.logp[a]);
    const auto parent = static_cast<std::int32_t>(a);
    std::size_t first_touches = 0;
    const double fx = field_.center_x(pc);
    const double fy = field_.center_y(pr);

    if (hyper_below_inf && plp < kInf && pr >= reach && pr + reach < rows_ &&
        pc >= reach && pc + reach < cols_) {
      // Interior parent: its whole ring lies on the board, so it walks the
      // window's lane lists with no clipping. Rejected lanes are left out
      // of the lists and would score -inf, so the ring's lane count is
      // what the table walk would have visited.
      if (!lanes_filled) {
        fill_lanes(reach, box_w);
        lanes_filled = true;
      }
      visited += ring_lanes_;
      const std::size_t base =
          static_cast<std::size_t>(pr - r_lo) * bw +
          static_cast<std::size_t>(pc - c_lo);
      const double* hyp = hyper_logw_.data() + base;
      float* best = box_logp_.data() + base;
      std::int32_t* best_parent = box_parent_.data() + base;
      std::int32_t* first = box_first_.data() + base;
      // The + 0.0 is the mask plane's value on a valid lane: it turns a -0
      // sum into +0, exactly as the table walk does.
      for (const Lane& l : lanes_) {
        const float lp = static_cast<float>(
            plp + std::max(hyp[l.off] + l.logw, kLogWeightFloor) + 0.0);
        merge_lane(lp, lp != kNegInfF, parent, best, best_parent, first,
                   l.off, accepted, first_touches);
      }
      for (const EdgeLane& e : edge_lanes_) {
        const float lp = static_cast<float>(
            plp + std::max(hyp[e.off] + e.logw, kLogWeightFloor) + 0.0);
        const bool acc =
            lp != kNegInfF &&
            annulus_holds(fx - field_.center_x(pc + e.dc),
                          fy - field_.center_y(pr + e.dr), w.out_thresh_m,
                          w.quarter_block_m, w.lower_m);
        merge_lane(lp, acc, parent, best, best_parent, first, e.off,
                   accepted, first_touches);
      }
      parent_count_[a + 1] = first_touches;
      continue;
    }

    // Border parent: the table walk, one row segment of its ring at a time,
    // clipped to the board.
    const int dr_lo = std::max(-reach, -pr);
    const int dr_hi = std::min(reach, rows_ - 1 - pr);
    for (int dr = dr_lo; dr <= dr_hi; ++dr) {
      const int nr = pr + dr;
      const int lim = dc_lim_[static_cast<std::size_t>(dr < 0 ? -dr : dr)];
      const int dc_lo = std::max(-lim, -pc);
      const int dc_hi = std::min(lim, cols_ - 1 - pc);
      const int len = dc_hi - dc_lo + 1;
      if (len <= 0) continue;
      const std::size_t lenz = static_cast<std::size_t>(len);
      visited += lenz;

      const std::size_t trow = static_cast<std::size_t>(dr + reach);
      const std::size_t tcol0 = static_cast<std::size_t>(dc_lo + reach);
      const double* dtab =
          &disp_logw_[trow * static_cast<std::size_t>(t) + tcol0];
      const double* mask =
          &disp_logw_[tt + trow * static_cast<std::size_t>(t) + tcol0];
      const unsigned char* edge =
          &disp_edge_[trow * static_cast<std::size_t>(t) + tcol0];
      const std::size_t box0 = static_cast<std::size_t>(nr - r_lo) * bw +
                               static_cast<std::size_t>(pc + dc_lo - c_lo);
      const double* hyp = &hyper_logw_[box0];
      float* best = &box_logp_[box0];
      std::int32_t* best_parent = &box_parent_[box0];
      std::int32_t* first = &box_first_[box0];

      const std::int32_t nc0 = static_cast<std::int32_t>(pc + dc_lo);
      const double ddy_exact = fy - field_.center_y(nr);
      // Scoring is branchless: the weight floor clamps the finite
      // log-weight sum (exactly log(max(w, floor)) up to reassociation)
      // and the mask plane then forces annulus-rejected lanes to -inf.
      // Knife-edge lanes re-run the exact center-difference annulus test,
      // so the accepted set does not depend on lattice rounding.
      for (std::size_t i = 0; i < lenz; ++i) {
        const float lp = static_cast<float>(
            plp + std::max(hyp[i] + dtab[i], kLogWeightFloor) + mask[i]);
        bool acc = lp != kNegInfF;
        if (edge[i] != 0 && acc) {
          acc = annulus_holds(
              fx - field_.center_x(nc0 + static_cast<std::int32_t>(i)),
              ddy_exact, w.out_thresh_m, w.quarter_block_m, w.lower_m);
        }
        merge_lane(lp, acc, parent, best, best_parent, first,
                   static_cast<std::ptrdiff_t>(i), accepted, first_touches);
      }
    }
    parent_count_[a + 1] = first_touches;
  }
  stats.expansions += accepted;
  stats.annulus_rejected += visited - accepted;

  // Emission in first-touch traversal order (ascending first accepting
  // parent, then row, then column): a counting sort on the first parent
  // over a row-major scan of the spans.
  for (std::size_t k = 1; k <= n_parents; ++k) {
    parent_count_[k] += parent_count_[k - 1];
  }
  cand.resize(parent_count_[n_parents]);
  for (int nr = r_lo; nr <= r_hi; ++nr) {
    const int lo = row_span_lo_[static_cast<std::size_t>(nr)];
    const int hi = row_span_hi_[static_cast<std::size_t>(nr)];
    const std::size_t row0 =
        static_cast<std::size_t>(nr - r_lo) * static_cast<std::size_t>(box_w);
    for (int nc = lo; nc <= hi; ++nc) {
      const std::size_t b = row0 + static_cast<std::size_t>(nc - c_lo);
      const std::int32_t f = box_first_[b];
      if (f < 0) continue;
      const std::size_t slot = parent_count_[static_cast<std::size_t>(f)]++;
      cand.cell[slot] = nr * cols_ + nc;
      cand.logp[slot] = box_logp_[b];
      cand.parent[slot] = box_parent_[b];
    }
  }
}

}  // namespace polardraw::core
