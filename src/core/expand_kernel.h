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
// integer block displacement (dc, dr), so the window's ring (|dr| <=
// reach, |dc| <= dc_lim[|dr|]) becomes lists of lanes, each a column
// offset and a log-weight, row by row, with the annulus rejections left
// out and the knife-edge lanes in a list of their own. Only the
// displacements an on-board parent can use are built (|dr| < rows, |dc| <
// cols).
//
// The walk is lane-major over dense parent rows. The beam is scattered
// into a parent grid over each parent row's hull (leftmost to rightmost
// parent column); a hole holds -inf and an index above every parent's.
// Candidate rows run outermost, each with one row of hyperbola weights;
// for each ring lane and each parent row it reaches the candidate row
// from, one contiguous loop scores the parent columns whose cell the lane
// puts on the board, as plp + max(hyperbola + lane weight, floor), and
// merges each score into per-cell arrays over the bounding box of the
// window's candidates: the best log-prob, its parent, and the least
// accepting parent. The merge is order-independent -- the larger score
// wins, and an exact tie goes to the lower parent index -- which is the
// rule of parents merged in index order, where a later one wins only when
// strictly greater. It is written as straight-line selects, so GCC
// vectorizes the loop at -O3 (16-byte vectors at the baseline x86-64 ISA);
// at -O2 it stays scalar, and the bits are the same either way. A loop
// the hull ends runs on into kPad columns of holes, to a whole number of
// vectors. A counting sort on the least accepting parent then emits the
// cells in first-touch order. All per-window scratch is sized by that box
// or that ring, never by more than the board, and belongs to the calling
// thread: one set per thread, reused by every decoder the thread runs, so
// a decoder holds no scratch of its own. Nothing in it carries from one
// window to the next.
//
// Knife-edge lanes: the lanes measure displacements on the exact block
// lattice, but the decode's annulus test is defined on block-center
// differences, whose ~1e-16 rounding decides acceptance cell by cell when
// a threshold sits on the lattice. That is the common case, not a corner:
// the default upper bound vmax * window is an exact block multiple.
// Lattice steps within 1e-12 of either threshold therefore test the exact
// center differences, squared: squared_annulus finds, once per window,
// the two squared thresholds at which the sqrt test changes its verdict,
// so the kernel accepts exactly the candidate set the golden decodes were
// captured with, with no sqrt per parent. A knife-edge lane sees a parent
// whose step leaves the annulus as a hole. Scores differ from a
// per-candidate log(product) only by FP reassociation.
//
// tests/core/expand_reference.h keeps that per-candidate scalar loop as a
// test-only oracle; tests/core/test_expand_kernel.cc holds this kernel to
// it (same candidates, parents, order and tallies; log-probs within 1e-4).
#pragma once

#include <cstdint>

#include "common/beam.h"
#include "core/config.h"
#include "core/motion.h"
#include "core/phase_field.h"

namespace polardraw::core {

/// Hot-loop tallies, accumulated across windows by the caller.
struct ExpandStats {
  std::uint64_t expansions = 0;
  std::uint64_t annulus_rejected = 0;
};

/// Scores every candidate cell reachable from the beam `prev` for one
/// window and writes the best candidate per cell to `cand` (its old
/// contents are dropped). Parents index `prev`; cells index `field`'s
/// grid. `o` is a window as StreamingDecoder::push hands it on: every
/// number finite and the direction unit or zero (the emission's
/// half-plane threshold and perpendicular-distance scale are in meters).
/// `prev`'s cells are distinct, as every beam step's are, and its
/// log-probs finite. Candidates are emitted in first-touch traversal order
/// (ascending first accepting parent, then row, then column). Every buffer
/// it needs besides `cand` is the calling thread's, reset or overwritten
/// before it is read, so the call is a pure function of its arguments.
void expand_beam(const PolarDrawConfig& cfg, const PhaseField& field,
                 const TrackObservation& o, const Beam& prev, Beam& cand,
                 ExpandStats& stats);

/// The center-difference annulus test on squared steps: a step whose
/// square is s passes !(sqrt(s) > out_thresh_m || sqrt(s) + quarter_block_m
/// < lower_m) exactly when lower_sq < s <= out_sq. Found by bisection over
/// the bit patterns of non-negative doubles, which correctly rounded sqrt
/// and + keep monotone; lower_sq is -1 when no step is too short.
struct SquaredAnnulus {
  double out_sq = 0.0;
  double lower_sq = -1.0;
};
SquaredAnnulus squared_annulus(double out_thresh_m, double quarter_block_m,
                               double lower_m);

}  // namespace polardraw::core
