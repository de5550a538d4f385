// Fixed-lag streaming Viterbi decoder (DESIGN.md section 13): the one
// decode of the paper's grid HMM (section 3.5 + appendix).
//
// The whiteboard is discretized into equal blocks; the hidden state is the
// pen's block at each window. Candidates are scored by the beam-expansion
// kernel (core/expand_kernel.h: Eq. 8 annulus transition, Eq. 11
// hyperbola and direction-line emission). This class accepts one
// TrackObservation at a time via push() and releases pen positions with
// bounded latency via poll(): a position is committed once the beam front
// has advanced at least `lag_windows` past it, by backtracing from the
// current most probable front node. Committed positions are frozen -- they
// are emitted exactly once and never revised. The decoder holds decode
// state only: the Eq. 10 initial-azimuth correction rotates the finished
// trajectory, so its callers (PolarDraw::track, SessionServer::ingest)
// carry and apply it.
//
// Internal state is retained across pushes, so history is never
// re-decoded. Each decoded window is one Beam whose parents index the step
// before. Only the steps a later commit can still read stay live: once a
// commit passes a step it moves to the back of the step store for reuse,
// so while it streams a decoder holds at most lag + 1 steps and a
// session's memory follows the lag rather than the stroke length. What a
// window needs only while it is decoded -- the kernel's tables and box
// arrays, the candidates and the prune's radix keys -- is the calling
// thread's: one set per thread, shared by every decoder the thread runs
// and reset or overwritten before each window reads it. A decoder owns
// only what outlives a window: its steps, its seed state, its commit
// buffer and its counters.
//
// Equivalence contract, pinned by tests/core/test_streaming_decoder.cc:
// with lag >= the sequence length, push-all + finish() is the classic
// batch Viterbi backtrace. decode_full_lag() below is exactly that loop;
// the batch pipeline (PolarDraw::track) runs it, so batch and streaming
// share one forward pass. Smaller lags trade accuracy for latency; the
// tolerance ladder in the same test bounds the degradation.
//
// Determinism contract: decodes are a pure function of (config, geometry,
// observation sequence, lag) -- independent of platform, standard library,
// and of which thread decodes which window, or what else that thread
// decoded before. The two ingredients are (1) candidate scoring by the
// beam-expansion kernel (core/expand_kernel.h), which emits candidates in
// a fixed first-touch traversal order, and (2) the prune it shares with
// the baselines' grid search (common/beam.h), whose survivors are a pure
// function of the scored values. It renormalizes every window: the
// front's best node sits at exactly 0. push() is the one screen for
// hostile windows: it decodes a window that is not finite as the
// unobserved window, so every score past it is finite, and it hands the
// kernel unit or zero directions.
//
// Seeding: an initial_hint seeds immediately; otherwise the decoder waits
// for the first has_phase observation, seeds from its hyperbola field
// (initial_location_on_field), and backfills the phaseless prefix with the
// seed position (the seed describes the pen *at* that first phase window,
// so decoding the prefix from it let the chain drift off the measured
// hyperbola before the anchor arrived). A stream that ends without any
// phase observation falls back to the board-center seed and decodes the
// buffered windows normally.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/vec.h"
#include "core/config.h"
#include "core/expand_kernel.h"
#include "core/motion.h"
#include "core/phase_field.h"

namespace polardraw::core {

/// Streaming-specific knobs; the tracking parameters come from
/// PolarDrawConfig as in the batch path.
struct StreamingConfig {
  /// Commit lag L in windows (clamped to >= 1): poll() freezes positions
  /// at least L windows behind the beam front. A lag >= the sequence
  /// length reproduces the batch decode bit for bit; smaller lags bound
  /// push-to-commit latency at the cost of commit accuracy. While it
  /// streams, a decoder holds at most lag + 1 beam steps.
  std::size_t lag_windows = 16;
};

class StreamingDecoder {
 public:
  /// `a1`, `a2`: antenna positions projected on the board plane;
  /// `antenna_z`: common standoff of the antennas from the board. `field`
  /// optionally shares a pre-built phase-difference cache for that layout
  /// across decoders (built here when absent). `initial_hint` (when
  /// non-null) seeds the chain immediately at the board cell nearest it;
  /// a hint with a non-finite coordinate counts as no hint and is tallied
  /// in `hmm.nonfinite_hints`.
  StreamingDecoder(const PolarDrawConfig& cfg, Vec2 a1, Vec2 a2,
                   double antenna_z, StreamingConfig stream_cfg = {},
                   std::shared_ptr<const PhaseField> field = nullptr,
                   const Vec2* initial_hint = nullptr);
  StreamingDecoder(const StreamingDecoder&) = delete;
  StreamingDecoder& operator=(const StreamingDecoder&) = delete;
  ~StreamingDecoder();  // flushes the hmm.* metric counters if needed

  /// Feeds the next window's observation. One forward Viterbi step (or a
  /// buffered no-op while the decoder is still waiting for its seed). A
  /// window whose distance bounds, dtheta21 or direction is not finite is
  /// replaced by unobserved_window(cfg) (core/motion.h) before it is
  /// buffered, seeds or decodes, and tallied in `hmm.nonfinite_observations`.
  /// A non-zero direction is normalized to unit length, without overflow
  /// or underflow however large or small it is.
  void push(const TrackObservation& obs);

  /// Drains every committed-but-undelivered block-center position into
  /// `out` and returns how many were appended. Position i (0 = the
  /// seed/root, i >= 1 = the state after window i-1) commits once
  /// `pushed() + 1 - i > lag_windows`; it is valued at push time by
  /// backtracing from the then-best front node, so the emitted positions
  /// do not depend on how often the caller polls.
  std::size_t poll(std::vector<Vec2>& out);

  /// Commits everything that remains (the batch-equivalent tail), flushes
  /// the metric counters, and returns the number of appended positions.
  /// After finish(), push() must not be called again.
  std::size_t finish(std::vector<Vec2>& out);

  /// Windows pushed so far (including any unseeded prefix).
  [[nodiscard]] std::size_t pushed() const { return n_pushed_; }
  /// Positions emitted so far through poll()/finish().
  [[nodiscard]] std::size_t committed() const { return n_committed_; }
  /// Windows pushed but not yet committed: the fixed-lag backlog held in
  /// the beam (at most lag_windows once seeded, larger only for an
  /// unseeded phaseless prefix). statusz reports this as commit lag.
  [[nodiscard]] std::size_t commit_lag() const {
    return n_pushed_ > n_committed_ ? n_pushed_ - n_committed_ : 0;
  }
  /// True once the chain has a seed (hint, first phase window, or the
  /// finish() fallback).
  [[nodiscard]] bool seeded() const { return seeded_; }
  /// Output-position index of the seed/root position, which has no
  /// originating observation: 0 for a hint (or fallback) seed, the
  /// phaseless-prefix length when the chain seeded mid-stream from its
  /// first phase window. Meaningful once seeded().
  [[nodiscard]] std::size_t seed_root_position() const {
    return seed_root_pos_;
  }

  /// Largest log-prob in the current beam front: exactly 0.0f after every
  /// decoded window (the per-window renormalization invariant; IEEE
  /// subtraction of the max from itself is exact). Test hook.
  [[nodiscard]] float front_logp_max() const;
  /// Sum of all per-window renormalization offsets: adding it to a front
  /// node's log-prob recovers the historical unnormalized value (in double,
  /// so the sum itself does not drift).
  [[nodiscard]] double total_logp_offset() const { return total_logp_offset_; }

 private:
  void seed_at(Vec2 start, std::size_t prefix_windows);
  /// One forward Viterbi step; `window_index` is a trace arg only.
  void step(const TrackObservation& o, std::size_t window_index);
  /// A cleared step after the live ones (a reused slot when there is one).
  Beam& next_step();
  /// Emits positions [n_committed_, target) from a front backtrace.
  std::size_t commit_upto(std::size_t target, std::vector<Vec2>& out);
  /// Moves the steps no later commit can read to the back for reuse.
  void release_committed_steps();
  void flush_metrics();

  PolarDrawConfig cfg_;
  StreamingConfig stream_cfg_;
  std::shared_ptr<const PhaseField> field_;
  int cols_, rows_;

  // --- Seeding ------------------------------------------------------------
  bool seeded_ = false;
  bool finished_ = false;
  Vec2 seed_center_;  // block center of the seed cell, once seeded
  std::size_t seed_root_pos_ = 0;  // output index of the seed/root position
  /// Observations buffered before the seed arrives; replayed only by the
  /// finish() fallback (a phase window instead *backfills* them and
  /// releases the buffer).
  std::vector<TrackObservation> unseeded_prefix_;

  // --- Step store --------------------------------------------------------
  /// steps_[s] for s < n_steps_ is live and holds output position
  /// first_pos_ + s, oldest first; steps_[n_steps_ - 1] is the beam front.
  /// The slots past n_steps_ are released steps kept for their capacity.
  std::vector<Beam> steps_;
  std::size_t n_steps_ = 0;
  std::size_t first_pos_ = 0;

  // --- Bookkeeping ---------------------------------------------------------
  std::size_t n_pushed_ = 0;
  std::size_t n_committed_ = 0;  // total ever committed, drained or not
  std::vector<Vec2> committed_buf_;  // committed, awaiting poll()

  // Per-window renormalization state (see the determinism contract above).
  double total_logp_offset_ = 0.0;

  // Hot-loop counters, flushed to the registry once per session.
  bool metrics_flushed_ = false;
  ExpandStats stats_;
  std::uint64_t n_starved_ = 0;
  std::uint64_t n_beam_nodes_ = 0;
  std::uint64_t beam_peak_ = 0;
  std::uint64_t n_nonfinite_observations_ = 0;
  bool nonfinite_hint_ = false;
};

/// Hyperbolic bootstrap (section 3.5 "Initial location estimation"): picks
/// a board point whose expected inter-antenna phase difference matches
/// `dtheta21`, preferring points near the board center. Deterministic;
/// absolute position is unobservable from two antennas, so any consistent
/// point serves.
Vec2 initial_location_on_field(const PolarDrawConfig& cfg,
                               const PhaseField& field, double dtheta21);

/// Batch decode: the most likely block-center trajectory for a whole
/// observation sequence (one position for the seed plus one per window;
/// empty for an empty sequence). Runs the decoder at lag n + 1, so nothing
/// commits before finish(), whose backtrace is the classic Viterbi one.
/// Same geometry, field and hint contract as the StreamingDecoder
/// constructor.
std::vector<Vec2> decode_full_lag(const PolarDrawConfig& cfg, Vec2 a1, Vec2 a2,
                                  double antenna_z,
                                  const std::vector<TrackObservation>& obs,
                                  const Vec2* initial_hint = nullptr,
                                  std::shared_ptr<const PhaseField> field =
                                      nullptr);

}  // namespace polardraw::core
