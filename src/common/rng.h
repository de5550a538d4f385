// Deterministic random number generation.
//
// Every stochastic component in the simulator (noise, user styles, scatterer
// motion) draws from an explicitly-seeded Rng so that experiments are exactly
// reproducible run-to-run. Components never construct their own engines from
// entropy; seeds always flow down from the experiment harness.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace polardraw {

/// Thin wrapper over a 64-bit Mersenne Twister with convenience draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Gaussian with the given mean / standard deviation; stddev 0 returns
  /// `mean`. The standard normal draw is scaled here, as libstdc++ does
  /// internally, because std::normal_distribution requires stddev > 0.
  double gaussian(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(0.0, 1.0)(engine_) * stddev + mean;
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Bernoulli draw.
  bool chance(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Picks a uniformly random element index for a container of size n.
  std::size_t index(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
  }

  /// Derives an independent child generator; use to give each subsystem its
  /// own stream so adding draws in one does not perturb another.
  Rng fork() {
    return Rng(static_cast<std::uint64_t>(engine_()) ^ 0xD1B54A32D192ED03ull);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace polardraw
