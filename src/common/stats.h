// Streaming and batch statistics used by the evaluation harness.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace polardraw {

/// Welford-style streaming mean / variance accumulator.
class RunningStats {
 public:
  void push(double x) {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    min_ = n_ == 1 ? x : std::min(min_, x);
    max_ = n_ == 1 ? x : std::max(max_, x);
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  /// Population variance (0 when fewer than two samples).
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_) : 0.0;
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

  void reset() { *this = RunningStats{}; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Percentile with linear interpolation; `p` in [0, 100].
/// Sorts a copy; fine for evaluation-sized vectors.
[[nodiscard]] double percentile(std::vector<double> values, double p);

}  // namespace polardraw
