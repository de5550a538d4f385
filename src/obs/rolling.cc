#include "obs/rolling.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace polardraw::obs {

RollingWindow::RollingWindow(double window_s, double step_s,
                             std::vector<double> bounds)
    : step_s_(step_s > 0.0 ? step_s : 1.0), bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  const auto n_steps = static_cast<std::size_t>(
      std::max(1.0, std::ceil(window_s / step_s_ - 1e-9)));
  steps_.resize(n_steps);
}

std::int64_t RollingWindow::step_index(double t_s) const {
  // Saturated at +-2^62 in double before the cast, so a huge or infinite
  // time (or a NaN, which fails the first comparison) names a step, and
  // the step arithmetic on now_index_ cannot overflow.
  constexpr double kCap = 0x1p62;
  const double q = std::floor(t_s / step_s_);
  return static_cast<std::int64_t>(q > -kCap ? (q < kCap ? q : kCap) : -kCap);
}

RollingWindow::Step& RollingWindow::step_for(std::int64_t index) {
  Step& s = steps_[static_cast<std::size_t>(index) % steps_.size()];
  if (s.index != index) {
    s.index = index;
    s.counts.assign(bounds_.size() + 1, 0);
    s.count = 0;
    s.sum = 0.0;
    s.min = std::numeric_limits<double>::infinity();
    s.max = -std::numeric_limits<double>::infinity();
  }
  return s;
}

void RollingWindow::advance_to(double t_s) {
  if (started_ && t_s <= now_s_) return;
  now_s_ = t_s;
  now_index_ = step_index(t_s);
  started_ = true;
  // Steps whose global index fell out of the window stay in the ring with
  // a stale index; step_for() reinitializes them on reuse and stats()
  // skips them, so no eager expiry pass is needed.
}

void RollingWindow::observe(double t_s, double v) {
  advance_to(t_s);
  // Late observations (t_s <= now from an interleaved session) land in
  // their own step when it is still live, else in the current one.
  std::int64_t idx = step_index(t_s);
  if (idx <= now_index_ - static_cast<std::int64_t>(steps_.size())) {
    idx = now_index_;
  }
  Step& s = step_for(idx);
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++s.counts[static_cast<std::size_t>(it - bounds_.begin())];
  ++s.count;
  s.sum += v;
  s.min = std::min(s.min, v);
  s.max = std::max(s.max, v);
}

RollingStats RollingWindow::stats() const {
  HistogramSnapshot merged;
  merged.bounds = bounds_;
  merged.counts.assign(bounds_.size() + 1, 0);
  merged.min = std::numeric_limits<double>::infinity();
  merged.max = -std::numeric_limits<double>::infinity();
  const std::int64_t oldest =
      now_index_ - static_cast<std::int64_t>(steps_.size()) + 1;
  for (const Step& s : steps_) {
    if (s.index < oldest || s.index > now_index_ || s.count == 0) continue;
    for (std::size_t b = 0; b < s.counts.size(); ++b) {
      merged.counts[b] += s.counts[b];
    }
    merged.count += s.count;
    merged.sum += s.sum;
    merged.min = std::min(merged.min, s.min);
    merged.max = std::max(merged.max, s.max);
  }
  RollingStats out;
  out.count = merged.count;
  if (merged.count == 0) return out;
  out.sum = merged.sum;
  out.min = merged.min;
  out.max = merged.max;
  out.p50 = merged.percentile(50.0);
  out.p99 = merged.percentile(99.0);
  return out;
}

}  // namespace polardraw::obs
