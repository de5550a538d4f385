#include "core/streaming_decoder.h"

// polarlint: hot-path -- no node-based hash maps in the decode loop.

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "common/angles.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace polardraw::core {

namespace {

/// Radix key of a renormalized log-prob that ascends as the log-prob
/// descends. Adding +0.0f turns -0 into +0, so the two tie as they compare
/// equal. A negative float's bits already ascend as it descends; a
/// non-negative one flips its low 31 bits, which puts it ahead of every
/// negative one, largest first.
std::uint32_t descending_key(float logp) {
  const auto bits = std::bit_cast<std::uint32_t>(logp + 0.0f);
  return bits ^ (((bits >> 31) - 1u) & 0x7FFFFFFFu);
}

/// Index of the first most probable node of a non-empty beam.
std::size_t best_node(const Beam& b) {
  std::size_t best = 0;
  for (std::size_t a = 1; a < b.size(); ++a) {
    if (b.logp[a] > b.logp[best]) best = a;
  }
  return best;
}

/// Stable LSD radix sort of `v` on its high 32 bits: four 8-bit passes,
/// counted in one sweep. `tmp` is scratch.
void radix_sort_high_word(std::vector<std::uint64_t>& v,
                          std::vector<std::uint64_t>& tmp) {
  std::array<std::array<std::uint32_t, 256>, 4> offset{};
  for (const std::uint64_t x : v) {
    for (std::size_t p = 0; p < 4; ++p) {
      ++offset[p][(x >> (32 + 8 * p)) & 0xFFu];
    }
  }
  tmp.resize(v.size());
  for (std::size_t p = 0; p < 4; ++p) {
    std::uint32_t sum = 0;
    for (std::uint32_t& o : offset[p]) {
      const std::uint32_t count = o;
      o = sum;
      sum += count;
    }
    const std::size_t shift = 32 + 8 * p;
    for (const std::uint64_t x : v) tmp[offset[p][(x >> shift) & 0xFFu]++] = x;
    v.swap(tmp);
  }
}

/// The prune's buffers: the window's candidates and the radix keys that
/// rank them. Like the kernel's scratch (core/expand_kernel.cc), one set
/// per thread serves every decoder the thread runs; each window overwrites
/// what it reads, and the survivors are copied into the decoder's own step.
struct PruneScratch {
  Beam cand;
  std::vector<std::uint64_t> keys, tmp;  // (key << 32) | index
};

thread_local PruneScratch tls_prune;

}  // namespace

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
  if (initial_hint != nullptr && std::isfinite(initial_hint->x) &&
      std::isfinite(initial_hint->y)) {
    seed_at(*initial_hint, 0);
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

void StreamingDecoder::push(const TrackObservation& obs) {
  if (finished_) return;
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
  PruneScratch& scratch = tls_prune;
  Beam& cand = scratch.cand;
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

  // Per-window renormalization: subtract the window's best score before
  // the candidates enter the step. Log-probs are float and strictly
  // decreasing, so an unnormalized session loses the resolution that
  // separates beam candidates after ~1e4 windows; after renormalization
  // the front max is exactly 0.0f every window (x - x is exact in IEEE)
  // and resolution is bounded by the beam's spread, not the session
  // length. Subtracting one common float from all candidates is monotone,
  // so the argmax chain -- and therefore every committed position -- is
  // preserved; ties it creates are resolved by the index tie-break below.
  float wmax = cand.logp[0];
  for (std::size_t i = 1; i < cand.size(); ++i) {
    wmax = std::max(wmax, cand.logp[i]);
  }
  total_logp_offset_ += static_cast<double>(wmax);
  for (float& lp : cand.logp) lp -= wmax;

  // Beam pruning: keep the beam_width most probable candidates, ordered
  // by (log-prob descending, candidate index ascending), so the survivor
  // set *and* its order within the step are a pure function of the scored
  // values (the determinism contract in the header). A stable radix sort
  // on the descending key, started in index order, yields exactly that
  // order; a NaN score sorts where its bits put it. Survivors are written
  // by index, so a step's capacity stays at the beam width.
  const std::size_t n_cand = cand.size();
  Beam& next = next_step();  // may move the steps: `prev` is not read below
  if (n_cand > cfg_.beam_width) {
    scratch.keys.resize(n_cand);
    for (std::size_t i = 0; i < n_cand; ++i) {
      scratch.keys[i] =
          (static_cast<std::uint64_t>(descending_key(cand.logp[i])) << 32) |
          i;
    }
    radix_sort_high_word(scratch.keys, scratch.tmp);
    next.resize(cfg_.beam_width);
    for (std::size_t i = 0; i < cfg_.beam_width; ++i) {
      const auto s = static_cast<std::size_t>(scratch.keys[i] & 0xFFFFFFFFu);
      next.cell[i] = cand.cell[s];
      next.logp[i] = cand.logp[s];
      next.parent[i] = cand.parent[s];
    }
  } else {
    next = cand;
  }
  if (!cfg_.use_viterbi && next.size() > 1) {
    // Greedy ablation: collapse the beam to the single best state.
    const std::size_t best = best_node(next);
    next.cell[0] = next.cell[best];
    next.logp[0] = next.logp[best];
    next.parent[0] = next.parent[best];
    next.resize(1);
  }
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
}

float StreamingDecoder::front_logp_max() const {
  if (n_steps_ == 0) return 0.0f;
  const Beam& front = steps_[n_steps_ - 1];
  return front.logp[best_node(front)];
}

}  // namespace polardraw::core
