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
// reach, |dc| <= dc_lim[|dr|]) becomes one list of lanes, each a box
// offset and a log-weight, with the annulus rejections left out and the
// knife-edge lanes in a short list of their own. Only the displacements
// an on-board parent can use are built (|dr| < rows, |dc| < cols). A
// candidate is then scored with two adds and a max and, in the same pass,
// merged into per-cell arrays over the bounding box of the window's
// candidates: the best log-prob, its parent, and the first parent that
// accepted the cell. A counting sort on that first parent then emits the
// cells in first-touch order. All per-window scratch is sized by that box
// or that ring, never by more than the board, and belongs to the calling
// thread: one set per thread, reused by every decoder the thread runs, so
// a decoder holds no scratch of its own. Nothing in it carries from one
// window to the next.
//
// One walk feeds the merge. A parent whose whole ring lies on the board
// walks the whole list. A parent whose ring crosses a board side walks,
// for each on-board row, only that row's lanes inside the board. The list
// holds each row in ascending column, and a row's lanes are exactly its
// columns b <= |dc| <= a: the step grows with |dc|, so the annulus keeps
// an interval of |dc|, and a knife-edge lane sits at an end of it. The
// in-board lanes of a row are thus at most two runs, cut by arithmetic;
// the knife-edge lanes take a board check. Within one parent each cell is
// touched at most once, so the lane order cannot change a merge, and
// parents run in index order.
//
// Knife-edge re-test: the lanes measure displacements on the exact block
// lattice, but the decode's annulus test is defined on block-center
// differences, whose ~1e-16 rounding decides acceptance cell by cell when a
// threshold sits on the lattice. That is the common case, not a corner:
// the default upper bound vmax * window is an exact block multiple. Lattice
// steps within 1e-12 of either threshold are therefore re-tested with the
// center-difference arithmetic in the walk, so the kernel accepts
// exactly the candidate set the golden decodes were captured with. Scores
// differ from a per-candidate log(product) only by FP reassociation.
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
/// Candidates are emitted in first-touch traversal order (ascending
/// parent, then row, then column). Every buffer it needs besides `cand`
/// is the calling thread's, reset or overwritten before it is read, so
/// the call is a pure function of its arguments.
void expand_beam(const PolarDrawConfig& cfg, const PhaseField& field,
                 const TrackObservation& o, const Beam& prev, Beam& cand,
                 ExpandStats& stats);

}  // namespace polardraw::core
