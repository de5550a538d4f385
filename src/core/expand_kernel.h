// Beam-expansion kernel: per-window candidate scoring for the Viterbi
// decode (Eq. 8 annulus transition + Eq. 11 hyperbola/direction emission).
// It is the decode's hot loop, and the throughput ceiling for batch eval,
// the session server and multi-pen decode.
//
// Two per-window precomputations keep the per-candidate loop free of
// transcendentals: (1) the hyperbola log-weight is evaluated once per
// touched cell against contiguous PhaseField rows (log of the clamped
// term, so pow(term, sharpness) becomes sharpness * log(term)); (2) every
// displacement-dependent factor -- the annulus test, the direction
// line/half-plane terms and the idle step penalty -- depends only on the
// integer block displacement (dc, dr), so it collapses into a
// (2*reach+1)^2 log-weight table with -inf marking annulus rejections. A
// candidate is then scored with three adds and a max and, in the same
// pass, merged into per-cell arrays over the bounding box of the window's
// candidates: the best log-prob, its parent, and the first parent that
// accepted the cell. A counting sort on that first parent then emits the
// cells in first-touch order. All per-window scratch is sized by that box,
// never by the board.
//
// Two walks feed the one merge. A parent whose whole ring (|dr| <= reach,
// |dc| <= dc_lim[|dr|]) lies on the board walks the window's ring as a
// flat list of lanes, each a box offset and a table log-weight, with the
// annulus rejections left out and the knife-edge lanes in a short list of
// their own. A parent near the board edge walks the table row by row,
// clipped to the board. Within one parent each cell is touched at most
// once, so the lane order cannot change a merge, and parents still run in
// index order: both walks produce the same bits. A NaN or +inf parent
// log-prob or hyperbola term turns a masked lane's -inf into a NaN the
// merge accepts, so such parents and windows take the table walk too.
//
// Knife-edge re-test: the table measures displacements on the exact block
// lattice, but the decode's annulus test is defined on block-center
// differences, whose ~1e-16 rounding decides acceptance cell by cell when a
// threshold sits on the lattice. That is the common case, not a corner:
// the default upper bound vmax * window is an exact block multiple. Lattice
// steps within 1e-12 of either threshold are therefore re-tested with the
// center-difference arithmetic in the merge loop, so the kernel accepts
// exactly the candidate set the golden decodes were captured with. Scores
// differ from a per-candidate log(product) only by FP reassociation.
//
// tests/core/expand_reference.h keeps that per-candidate scalar loop as a
// test-only oracle; tests/core/test_expand_kernel.cc holds this kernel to
// it (same candidates, parents, order and tallies; log-probs within 1e-4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/vec.h"
#include "core/config.h"
#include "core/motion.h"
#include "core/phase_field.h"

namespace polardraw::core {

/// One beam step, structure-of-arrays: the nodes a window keeps (or the
/// candidates it scores). parent[i] indexes the step before; -1 marks the
/// seed.
struct Beam {
  std::vector<std::int32_t> cell;
  std::vector<float> logp;
  std::vector<std::int32_t> parent;

  [[nodiscard]] std::size_t size() const { return cell.size(); }
  void resize(std::size_t n) {
    cell.resize(n);
    logp.resize(n);
    parent.resize(n);
  }
};

/// Hot-loop tallies, accumulated across windows by the caller.
struct ExpandStats {
  std::uint64_t expansions = 0;
  std::uint64_t annulus_rejected = 0;
};

class ExpandKernel {
 public:
  /// `field` must outlive the kernel (the decoder owns both).
  ExpandKernel(const PolarDrawConfig& cfg, const PhaseField& field);

  /// Scores every candidate cell reachable from the beam `prev` for one
  /// window and writes the best candidate per cell to `cand` (its old
  /// contents are dropped). Parents index `prev`. Candidates are emitted
  /// in first-touch traversal order (ascending parent, then row, then
  /// column).
  void expand(const TrackObservation& o, const Beam& prev, Beam& cand,
              ExpandStats& stats);

 private:
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

  WindowTerms window_terms(const TrackObservation& o) const;
  void fill_dc_limits(const WindowTerms& w);
  /// Builds the (2*reach+1)^2 displacement log-weight table (direction +
  /// idle terms, -inf on annulus rejection) plus the knife-edge flags for
  /// lattice distances that coincide with an annulus threshold.
  void fill_displacement_table(const WindowTerms& w);
  /// Over the union of per-row column spans touched by this window's
  /// beam: evaluates the per-cell hyperbola log-weight and resets the merge
  /// arrays. Returns false if any log-weight is NaN or +inf.
  bool fill_box_rows(const WindowTerms& w, int r_lo, int r_hi, int c_lo,
                     int box_w);
  /// Flattens the ring (|dr| <= reach, |dc| <= dc_lim_[|dr|]) into the
  /// lane lists interior parents walk, with box offsets for a box
  /// `box_w` wide: annulus-valid lanes in lanes_, knife-edge ones in
  /// edge_lanes_, rejected ones left out but counted in ring_lanes_.
  void fill_lanes(int reach, int box_w);

  const PolarDrawConfig cfg_;
  const PhaseField& field_;
  const int cols_, rows_;

  std::vector<int> dc_lim_;             // per-|dr| column reach
  std::vector<double> disp_logw_;       // (2r+1)^2 log-weights + -inf mask
  std::vector<unsigned char> disp_edge_;  // threshold-coincident lattice steps
  std::vector<int> parent_row_lo_, parent_row_hi_;  // parent columns per row
  std::vector<int> row_span_lo_, row_span_hi_;   // touched columns per row
  // The ring as lane lists, for parents whose ring lies on the board.
  struct Lane {
    std::ptrdiff_t off;  // dr * box_w + dc
    double logw;         // disp_logw_ entry
  };
  struct EdgeLane {
    std::ptrdiff_t off;
    double logw;
    int dr, dc;  // for the center-difference re-test
  };
  std::vector<Lane> lanes_;
  std::vector<EdgeLane> edge_lanes_;
  std::uint64_t ring_lanes_ = 0;  // every lane of the ring, rejected too
  // Per-cell arrays over the bounding box of the row spans. They grow to
  // the largest box a window has needed and never shrink.
  std::vector<double> hyper_logw_;         // hyperbola log-weight
  std::vector<float> box_logp_;            // best log-prob so far, -inf
  std::vector<std::int32_t> box_parent_;   // its parent (index into prev)
  std::vector<std::int32_t> box_first_;    // first accepting parent, -1
  std::vector<std::size_t> parent_count_;  // emission counting sort
};

}  // namespace polardraw::core
