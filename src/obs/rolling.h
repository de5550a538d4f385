// Deterministic sliding-window aggregator (DESIGN.md section 17).
//
// Rolling SLO metrics ("p99 push-to-commit over the last 10 s") need a
// notion of "now" -- but polarlint R7 bans wall-clock reads outside the
// span/bench layers, and the whole pipeline is replayed in simulation
// time. So the window is driven purely by the observation timestamps the
// caller feeds in: `observe(t_s, v)` advances the window to `t_s`, and
// every query is answered as of the latest observation. Replaying the
// same observation stream therefore reproduces the same rolling stats
// bit-for-bit at every step, regardless of wall-clock scheduling.
//
// Internally a window of `window_s` seconds is quantized into
// `window_s / step_s` fixed-width step buckets, each holding a
// HistogramData (obs/metrics.h, the registry shards' accumulator) over
// the shared bounds. Advancing time expires whole steps; a query merges
// the live steps, in ring order, into one HistogramSnapshot. Memory is
// O(steps * buckets), independent of observation rate.
//
// Not thread-safe: callers sequence observe()/advance_to() externally
// (SessionServer drains per-session samples into one instance under its
// status mutex, in session-id order, so the merge order is deterministic
// too).
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.h"

namespace polardraw::obs {

class RollingWindow {
 public:
  /// Window of `window_s` seconds quantized into steps of `step_s`
  /// (window_s is rounded up to a whole number of steps). `bounds` are
  /// the shared histogram bucket upper bounds used for percentiles.
  RollingWindow(double window_s, double step_s, std::vector<double> bounds);

  /// Records `v` at simulation time `t_s`, first advancing the window.
  /// Observations older than the already-advanced window tail are
  /// counted into the current step (timestamps from concurrent sessions
  /// may interleave slightly; a rolling SLO does not need them resorted).
  void observe(double t_s, double v);

  /// Advances the window to `t_s` without recording (expires old steps).
  /// Time never moves backwards: an earlier t_s is a no-op.
  void advance_to(double t_s);

  /// The histogram of observations in (now - window_s, now], where now is
  /// the largest timestamp seen; all zeros while the window is empty.
  [[nodiscard]] HistogramSnapshot stats() const;

  /// Latest timestamp the window has advanced to.
  [[nodiscard]] double now_s() const { return now_s_; }

  [[nodiscard]] double window_s() const {
    return static_cast<double>(steps_.size()) * step_s_;
  }

 private:
  struct Step {
    std::int64_t index = -1;  // global step index, -1 = empty
    HistogramData hist;
  };

  [[nodiscard]] std::int64_t step_index(double t_s) const;
  HistogramData& step_for(std::int64_t index);

  double step_s_;
  std::vector<double> bounds_;
  std::vector<Step> steps_;  // ring keyed by floored index mod size
  double now_s_ = 0.0;
  std::int64_t now_index_ = 0;
  bool started_ = false;
};

}  // namespace polardraw::obs
