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
// never by the board, and belongs to the calling thread: one set per
// thread, reused by every decoder the thread runs, so a decoder holds no
// scratch of its own. Nothing in it carries from one window to the next.
//
// Two walks feed the one merge. A parent whose whole ring (|dr| <= reach,
// |dc| <= dc_lim[|dr|]) lies on the board walks the window's ring as a
// flat list of lanes, each a box offset and a table log-weight, with the
// annulus rejections left out and the knife-edge lanes in a short list of
// their own. A parent near the board edge walks the table row by row,
// clipped to the board. The parent's position alone chooses the walk:
// every score is finite (StreamingDecoder::push screens each window), so
// a rejected lane scores -inf in the table walk and is never accepted,
// exactly as if it were left out. Within one parent each cell is touched
// at most once, so the lane order cannot change a merge, and parents still
// run in index order: both walks produce the same bits.
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
