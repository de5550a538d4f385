#include "core/streaming_decoder.h"

// polarlint: hot-path -- no node-based hash maps in the decode loop.

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/angles.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace polardraw::core {

Vec2 initial_location_on_field(const PolarDrawConfig& cfg,
                               const PhaseField& field, double dtheta21) {
  // Scan the cached field for blocks whose expected inter-antenna phase
  // difference matches the measurement; among matches prefer the one
  // nearest the board center (the paper picks a point on a candidate
  // hyperbola arbitrarily -- absolute position is unobservable; only
  // trajectory shape matters).
  const Vec2 center{cfg.board_width_m / 2.0, cfg.board_height_m / 2.0};
  const double target = wrap_2pi(dtheta21);
  double best_score = std::numeric_limits<double>::infinity();
  Vec2 best = center;
  for (int r = 0; r < field.rows(); ++r) {
    for (int c = 0; c < field.cols(); ++c) {
      const double mismatch = angle_dist(field.phase_at(c, r), target);
      // The center-distance term only adds; skip the sqrt when the phase
      // mismatch alone already loses.
      if (mismatch * 2.0 >= best_score) continue;
      const Vec2 p = field.block_center(c, r);
      const double score = mismatch * 2.0 + p.dist(center);
      if (score < best_score) {
        best_score = score;
        best = p;
      }
    }
  }
  return best;
}

std::vector<Vec2> decode_full_lag(const PolarDrawConfig& cfg, Vec2 a1, Vec2 a2,
                                  double antenna_z,
                                  const std::vector<TrackObservation>& obs,
                                  const Vec2* initial_hint,
                                  std::shared_ptr<const PhaseField> field) {
  std::vector<Vec2> traj;
  if (obs.empty()) return traj;
  StreamingConfig scfg;
  scfg.lag_windows = obs.size() + 1;
  StreamingDecoder decoder(cfg, a1, a2, antenna_z, scfg, std::move(field),
                           initial_hint);
  for (const TrackObservation& o : obs) decoder.push(o);
  traj.reserve(obs.size() + 1);
  decoder.finish(traj);
  return traj;
}

StreamingDecoder::StreamingDecoder(const PolarDrawConfig& cfg, Vec2 a1,
                                   Vec2 a2, double antenna_z,
                                   StreamingConfig stream_cfg,
                                   std::shared_ptr<const PhaseField> field,
                                   const Vec2* initial_hint)
    : cfg_(cfg),
      stream_cfg_(stream_cfg),
      field_(field != nullptr
                 ? std::move(field)
                 : std::make_shared<const PhaseField>(cfg, a1, a2, antenna_z)),
      cols_(field_->cols()),
      rows_(field_->rows()) {
  stream_cfg_.lag_windows = std::max<std::size_t>(stream_cfg_.lag_windows, 1);
  // A non-finite hint names no board cell; the chain waits for its first
  // phase window as if unhinted.
  if (initial_hint != nullptr) {
    nonfinite_hint_ =
        !(std::isfinite(initial_hint->x) && std::isfinite(initial_hint->y));
    if (!nonfinite_hint_) seed_at(*initial_hint, 0);
  }
}

StreamingDecoder::~StreamingDecoder() { flush_metrics(); }

void StreamingDecoder::seed_at(Vec2 start, std::size_t prefix_windows) {
  // Clamped to the grid in double before the cast, so a finite start of
  // any size seeds at the nearest board cell.
  const auto clamped = [](double v, int hi) {
    return static_cast<int>(std::clamp(v, 0.0, static_cast<double>(hi)));
  };
  const int c0 = clamped(start.x / cfg_.block_m, cols_ - 1);
  const int r0 = clamped(start.y / cfg_.block_m, rows_ - 1);
  seed_center_ = field_->block_center(c0, r0);
  Beam& root = next_step();
  root.cell.push_back(r0 * cols_ + c0);
  root.logp.push_back(0.0f);
  root.parent.push_back(-1);
  first_pos_ = prefix_windows;
  seed_root_pos_ = prefix_windows;
  seeded_ = true;
}

Beam& StreamingDecoder::next_step() {
  if (n_steps_ == steps_.size()) steps_.emplace_back();
  Beam& b = steps_[n_steps_++];
  b.resize(0);
  return b;
}

void StreamingDecoder::push(const TrackObservation& pushed) {
  if (finished_) return;
  // The one screen for hostile windows: past it every number the decode
  // reads is finite, and so is every score the kernel and the prune see.
  const DistanceEstimate& d = pushed.distance;
  const Vec2& dir = pushed.direction.direction;
  const bool finite = std::isfinite(d.lower_m) && std::isfinite(d.upper_m) &&
                      std::isfinite(d.dtheta21) && std::isfinite(dir.x) &&
                      std::isfinite(dir.y);
  if (!finite) ++n_nonfinite_observations_;
  TrackObservation obs = finite ? pushed : unobserved_window(cfg_);
  // The emission's half-plane threshold and perpendicular-distance scale
  // are in meters, so the kernel reads a unit or zero direction. A
  // non-unit one is first scaled by an exact power of two, so its square
  // can neither overflow nor underflow; where it did neither anyway, the
  // result equals the plain division by its norm. The tolerance leaves
  // already-normalized vectors untouched.
  Vec2& unit = obs.direction.direction;
  const double larger = std::max(std::fabs(unit.x), std::fabs(unit.y));
  if (larger > 0.0 && std::fabs(unit.norm_sq() - 1.0) > 1e-9) {
    const int e = std::ilogb(larger);
    unit = Vec2{std::ldexp(unit.x, -e), std::ldexp(unit.y, -e)};
    unit = unit / std::sqrt(unit.norm_sq());
  }
  ++n_pushed_;
  if (!seeded_) {
    if (!obs.has_phase) {
      // No anchor yet: buffer the window. If a phase window arrives later
      // the prefix is backfilled with the seed position (the seed describes
      // the pen *at* that window); finish() replays the buffer from the
      // board center only when the whole stream stays phaseless.
      unseeded_prefix_.push_back(obs);
      return;
    }
    seed_at(initial_location_on_field(cfg_, *field_, obs.distance.dtheta21),
            unseeded_prefix_.size());
    // The prefix is accounted for by seed_at's prefix_windows (commit_upto
    // backfills it with the seed position); the buffered observations are
    // never replayed, so release their memory for long-lived sessions.
    unseeded_prefix_.clear();
    unseeded_prefix_.shrink_to_fit();
  }
  step(obs, n_pushed_ - 1);
  // Eager fixed-lag commit: freezing values at push time (rather than at
  // poll time) makes them independent of the caller's drain cadence, which
  // is what lets the session server stay bit-identical across worker
  // counts.
  const std::size_t total = n_pushed_ + 1;
  if (total > stream_cfg_.lag_windows) {
    commit_upto(total - stream_cfg_.lag_windows, committed_buf_);
    release_committed_steps();
  }
}

std::size_t StreamingDecoder::poll(std::vector<Vec2>& out) {
  const std::size_t n = committed_buf_.size();
  out.insert(out.end(), committed_buf_.begin(), committed_buf_.end());
  committed_buf_.clear();
  return n;
}

std::size_t StreamingDecoder::finish(std::vector<Vec2>& out) {
  if (!finished_) {
    finished_ = true;
    if (!seeded_) {
      if (n_pushed_ == 0) {
        flush_metrics();
        return poll(out);
      }
      // Legacy fallback: the stream ended without a single phase window,
      // so there is no hyperbola to seed from. Seed the board center and
      // decode the buffered windows normally (this is exactly what the
      // batch decode always did for all-phaseless sequences).
      seed_at(Vec2{cfg_.board_width_m / 2.0, cfg_.board_height_m / 2.0}, 0);
      for (std::size_t i = 0; i < unseeded_prefix_.size(); ++i) {
        step(unseeded_prefix_[i], i);
      }
      unseeded_prefix_.clear();
    }
    commit_upto(n_pushed_ + 1, committed_buf_);
    flush_metrics();
  }
  return poll(out);
}

std::size_t StreamingDecoder::commit_upto(std::size_t target,
                                          std::vector<Vec2>& out) {
  if (target <= n_committed_) return 0;
  const std::size_t from = n_committed_;
  const std::size_t base = out.size();
  // Positions before the first live step are the backfilled seed prefix;
  // the rest come from a backtrace from the most probable front node,
  // which stops at the commit frontier.
  out.resize(base + (target - from), seed_center_);
  std::size_t a = best_node(steps_[n_steps_ - 1]);
  for (std::size_t s = n_steps_; s-- > 0 && first_pos_ + s >= from;) {
    const Beam& b = steps_[s];
    if (first_pos_ + s < target) {
      const std::int32_t cell = b.cell[a];
      out[base + (first_pos_ + s - from)] =
          field_->block_center(cell % cols_, cell / cols_);
    }
    a = static_cast<std::size_t>(b.parent[a]);
  }
  n_committed_ = target;
  return target - from;
}

void StreamingDecoder::release_committed_steps() {
  // A step whose position is committed is never read again: later commits
  // backtrace only down to the commit frontier. The frontier can still sit
  // inside the backfilled prefix, before the first step.
  if (n_committed_ <= first_pos_) return;
  const std::size_t k = n_committed_ - first_pos_;
  std::rotate(steps_.begin(), steps_.begin() + static_cast<std::ptrdiff_t>(k),
              steps_.begin() + static_cast<std::ptrdiff_t>(n_steps_));
  n_steps_ -= k;
  first_pos_ += k;
}

void StreamingDecoder::step(const TrackObservation& o,
                            std::size_t window_index) {
  static const obs::TraceName window_name("hmm.window");
  static const obs::TraceName arg_window("window");
  static const obs::TraceName arg_occupancy("beam_occupancy");

  // Candidate scoring (Eq. 8 annulus + Eq. 11 emission) lives in the
  // kernel module.
  Beam& cand = thread_candidates();  // survivors are copied to our step
  const Beam& prev = steps_[n_steps_ - 1];
  expand_beam(cfg_, *field_, o, prev, cand, stats_);

  if (cand.size() == 0) {
    ++n_starved_;
    // Chain starved (e.g. all motion rejected) -- hold the most probable
    // surviving state.
    const std::size_t best = best_node(prev);
    cand.cell.push_back(prev.cell[best]);
    cand.logp.push_back(prev.logp[best]);
    cand.parent.push_back(static_cast<std::int32_t>(best));
  }

  // Renormalize and prune (common/beam.h): the survivor set and its order
  // are a pure function of the scored values (the determinism contract in
  // the header), and the subtracted window max accumulates in the offset.
  // The greedy ablation keeps only the single best state.
  Beam& next = next_step();  // may move the steps: `prev` is not read below
  total_logp_offset_ += static_cast<double>(
      prune_beam(cand, cfg_.use_viterbi ? cfg_.beam_width : 1,
                 field_->cells(), next));
  const std::uint64_t occupancy = next.size();
  n_beam_nodes_ += occupancy;
  if (occupancy > beam_peak_) beam_peak_ = occupancy;
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    // One instant per decoded window: where the beam stands on the
    // timeline. Recording only -- the decode state never reads it.
    tracer.instant(window_name.id(), arg_window.id(),
                   static_cast<double>(window_index), arg_occupancy.id(),
                   static_cast<double>(occupancy));
  }
}

void StreamingDecoder::flush_metrics() {
  if (metrics_flushed_) return;
  metrics_flushed_ = true;
  static const obs::Counter windows_counter("hmm.windows");
  static const obs::Counter expansions_counter("hmm.beam_expansions");
  static const obs::Counter nodes_counter("hmm.beam_nodes");
  static const obs::Counter annulus_counter("hmm.annulus_rejected");
  static const obs::Counter starved_counter("hmm.starved_windows");
  static const obs::Gauge occupancy_gauge("hmm.beam_occupancy_peak");
  windows_counter.add(n_pushed_);
  expansions_counter.add(stats_.expansions);
  nodes_counter.add(n_beam_nodes_);
  annulus_counter.add(stats_.annulus_rejected);
  starved_counter.add(n_starved_);
  occupancy_gauge.set_max(static_cast<double>(beam_peak_));
  // Registered on first use: only a run with hostile input exports them.
  if (n_nonfinite_observations_ > 0) {
    static const obs::Counter screened_counter("hmm.nonfinite_observations");
    screened_counter.add(n_nonfinite_observations_);
  }
  if (nonfinite_hint_) {
    static const obs::Counter hint_counter("hmm.nonfinite_hints");
    hint_counter.add(1);
  }
}

float StreamingDecoder::front_logp_max() const {
  if (n_steps_ == 0) return 0.0f;
  const Beam& front = steps_[n_steps_ - 1];
  return front.logp[best_node(front)];
}

}  // namespace polardraw::core
