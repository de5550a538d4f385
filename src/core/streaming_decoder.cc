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
      rows_(field_->rows()),
      kernel_(cfg_, *field_) {
  stream_cfg_.lag_windows = std::max<std::size_t>(stream_cfg_.lag_windows, 1);
  if (initial_hint != nullptr) {
    seed_at(*initial_hint, 0);
  }
}

StreamingDecoder::~StreamingDecoder() { flush_metrics(); }

void StreamingDecoder::seed_at(Vec2 start, std::size_t prefix_windows) {
  const int c0 = std::clamp(static_cast<int>(start.x / cfg_.block_m), 0,
                            cols_ - 1);
  const int r0 = std::clamp(static_cast<int>(start.y / cfg_.block_m), 0,
                            rows_ - 1);
  seed_center_ = field_->block_center(c0, r0);
  node_cell_.push_back(r0 * cols_ + c0);
  node_logp_.push_back(0.0f);
  node_parent_.push_back(-1);
  prev_begin_ = 0;
  prev_end_ = 1;
  step_begin_.push_back(0);
  arena_base_out_ = prefix_windows;
  seed_root_pos_ = prefix_windows;
  seeded_ = true;
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
    maybe_compact();
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
  // Positions at or past the arena root need a backtrace from the current
  // most probable front node; everything before the root is the backfilled
  // seed prefix.
  if (target > arena_base_out_) {
    std::size_t best = prev_begin_;
    for (std::size_t a = prev_begin_ + 1; a < prev_end_; ++a) {
      if (node_logp_[a] > node_logp_[best]) best = a;
    }
    backtrace_scratch_.clear();
    for (std::int32_t a = static_cast<std::int32_t>(best); a >= 0;
         a = node_parent_[static_cast<std::size_t>(a)]) {
      const std::int32_t cell = node_cell_[static_cast<std::size_t>(a)];
      backtrace_scratch_.push_back(
          field_->block_center(cell % cols_, cell / cols_));
    }
    std::reverse(backtrace_scratch_.begin(), backtrace_scratch_.end());
  }
  const std::size_t from = n_committed_;
  for (std::size_t i = from; i < target; ++i) {
    out.push_back(i < arena_base_out_
                      ? seed_center_
                      : backtrace_scratch_[i - arena_base_out_]);
  }
  n_committed_ = target;
  return target - from;
}

void StreamingDecoder::maybe_compact() {
  // Steps whose output position is already committed can never be read
  // again (future commits backtrace only down to the commit frontier), so
  // once enough of them pile up the arena prefix is dropped and parent
  // indices rebased. The retained nodes keep their cells, log-probs, and
  // relative order, so the forward recursion and every future commit are
  // unchanged -- pinned by the compaction-invariance test.
  if (n_committed_ <= arena_base_out_) return;
  const std::size_t k = n_committed_ - arena_base_out_;
  if (k == 0 || k >= step_begin_.size()) return;
  const std::size_t offset = step_begin_[k];
  if (offset <= stream_cfg_.compact_node_threshold) return;

  node_cell_.erase(node_cell_.begin(),
                   node_cell_.begin() + static_cast<std::ptrdiff_t>(offset));
  node_logp_.erase(node_logp_.begin(),
                   node_logp_.begin() + static_cast<std::ptrdiff_t>(offset));
  node_parent_.erase(
      node_parent_.begin(),
      node_parent_.begin() + static_cast<std::ptrdiff_t>(offset));
  // Step k becomes the new root step. With lag 1 it is also the frontier
  // (last) step, which has no successor entry in step_begin_ -- its end is
  // the arena end.
  const std::size_t root_end = k + 1 < step_begin_.size()
                                   ? step_begin_[k + 1]
                                   : node_cell_.size() + offset;
  const std::size_t new_root_end = root_end - offset;
  for (std::size_t a = 0; a < node_parent_.size(); ++a) {
    node_parent_[a] = a < new_root_end
                          ? -1
                          : node_parent_[a] - static_cast<std::int32_t>(offset);
  }
  step_begin_.erase(step_begin_.begin(),
                    step_begin_.begin() + static_cast<std::ptrdiff_t>(k));
  for (std::size_t& b : step_begin_) b -= offset;
  prev_begin_ -= offset;
  prev_end_ -= offset;
  arena_base_out_ += k;
}

void StreamingDecoder::step(const TrackObservation& o,
                            std::size_t window_index) {
  static const obs::TraceName window_name("hmm.window");
  static const obs::TraceName arg_window("window");
  static const obs::TraceName arg_occupancy("beam_occupancy");

  // Candidate scoring (Eq. 8 annulus + Eq. 11 emission) lives in the
  // kernel module.
  kernel_.expand(o, node_cell_, node_logp_, prev_begin_, prev_end_,
                 cand_cell_, cand_logp_, cand_parent_, stats_);

  if (cand_cell_.empty()) {
    ++n_starved_;
    // Chain starved (e.g. all motion rejected) -- hold the most probable
    // surviving state.
    std::size_t best = prev_begin_;
    for (std::size_t a = prev_begin_ + 1; a < prev_end_; ++a) {
      if (node_logp_[a] > node_logp_[best]) best = a;
    }
    cand_cell_.push_back(node_cell_[best]);
    cand_logp_.push_back(node_logp_[best]);
    cand_parent_.push_back(static_cast<std::int32_t>(best));
  }

  // Per-window renormalization: subtract the window's best score before
  // the candidates enter the arena. node_logp_ is float and strictly
  // decreasing, so an unnormalized session loses the resolution that
  // separates beam candidates after ~1e4 windows; after renormalization
  // the front max is exactly 0.0f every window (x - x is exact in IEEE)
  // and resolution is bounded by the beam's spread, not the session
  // length. Subtracting one common float from all candidates is monotone,
  // so the argmax chain -- and therefore every committed position -- is
  // preserved; ties it creates are resolved by the index tie-break below.
  float wmax = cand_logp_[0];
  for (std::size_t i = 1; i < cand_logp_.size(); ++i) {
    wmax = std::max(wmax, cand_logp_[i]);
  }
  total_logp_offset_ += static_cast<double>(wmax);
  for (float& lp : cand_logp_) lp -= wmax;

  // Beam pruning: keep the beam_width most probable candidates, ordered
  // by (log-prob descending, candidate index ascending), so the survivor
  // set *and* its arena order are a pure function of the scored values
  // (the determinism contract in the header). A stable radix sort on the
  // descending key, started in index order, yields exactly that order; a
  // NaN score sorts where its bits put it.
  const std::size_t n_cand = cand_cell_.size();
  const std::size_t new_begin = node_cell_.size();
  if (n_cand > cfg_.beam_width) {
    prune_keys_.resize(n_cand);
    for (std::size_t i = 0; i < n_cand; ++i) {
      prune_keys_[i] =
          (static_cast<std::uint64_t>(descending_key(cand_logp_[i])) << 32) |
          i;
    }
    radix_sort_high_word(prune_keys_, prune_tmp_);
    for (std::size_t i = 0; i < cfg_.beam_width; ++i) {
      const auto s = static_cast<std::size_t>(prune_keys_[i] & 0xFFFFFFFFu);
      node_cell_.push_back(cand_cell_[s]);
      node_logp_.push_back(cand_logp_[s]);
      node_parent_.push_back(cand_parent_[s]);
    }
  } else {
    node_cell_.insert(node_cell_.end(), cand_cell_.begin(), cand_cell_.end());
    node_logp_.insert(node_logp_.end(), cand_logp_.begin(), cand_logp_.end());
    node_parent_.insert(node_parent_.end(), cand_parent_.begin(),
                        cand_parent_.end());
  }
  if (!cfg_.use_viterbi && node_cell_.size() - new_begin > 1) {
    // Greedy ablation: collapse the beam to the single best state.
    std::size_t best = new_begin;
    for (std::size_t a = new_begin + 1; a < node_cell_.size(); ++a) {
      if (node_logp_[a] > node_logp_[best]) best = a;
    }
    node_cell_[new_begin] = node_cell_[best];
    node_logp_[new_begin] = node_logp_[best];
    node_parent_[new_begin] = node_parent_[best];
    node_cell_.resize(new_begin + 1);
    node_logp_.resize(new_begin + 1);
    node_parent_.resize(new_begin + 1);
  }
  prev_begin_ = new_begin;
  prev_end_ = node_cell_.size();
  step_begin_.push_back(new_begin);
  const std::uint64_t occupancy = prev_end_ - prev_begin_;
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
  if (prev_end_ <= prev_begin_) return 0.0f;
  float best = node_logp_[prev_begin_];
  for (std::size_t a = prev_begin_ + 1; a < prev_end_; ++a) {
    best = std::max(best, node_logp_[a]);
  }
  return best;
}

}  // namespace polardraw::core
