#include "obs/rolling.h"

#include <algorithm>
#include <cmath>

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

HistogramData& RollingWindow::step_for(std::int64_t index) {
  // Floored modulo, so a negative step never takes a live step's slot.
  const auto n = static_cast<std::int64_t>(steps_.size());
  Step& s = steps_[static_cast<std::size_t>((index % n + n) % n)];
  if (s.index != index) {
    s.index = index;
    // Emptied in place: the counts keep their capacity, so a reused step
    // allocates nothing when observe() refills them.
    s.hist.counts.clear();
    s.hist.count = 0;
    s.hist.sum = s.hist.min = s.hist.max = 0.0;
  }
  return s.hist;
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
  step_for(idx).observe(bounds_, v);
}

HistogramSnapshot RollingWindow::stats() const {
  HistogramSnapshot out;
  out.bounds = bounds_;
  out.counts.assign(bounds_.size() + 1, 0);
  const std::int64_t oldest =
      now_index_ - static_cast<std::int64_t>(steps_.size()) + 1;
  for (const Step& s : steps_) {
    if (s.index >= oldest && s.index <= now_index_) out.merge(s.hist);
  }
  return out;
}

}  // namespace polardraw::obs
