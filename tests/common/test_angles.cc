#include "common/angles.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace polardraw {
namespace {

// Batch oracle for PhaseUnwrapper, mirroring numpy.unwrap with default
// parameters: each sample is shifted by a multiple of 2*pi so that no
// step exceeds pi in magnitude.
std::vector<double> unwrapped(std::vector<double> phases) {
  double offset = 0.0;
  double prev = phases.empty() ? 0.0 : phases[0];
  for (std::size_t i = 1; i < phases.size(); ++i) {
    const double raw = phases[i];
    const double d = raw - prev;
    if (d > kPi) {
      offset -= kTwoPi;
    } else if (d < -kPi) {
      offset += kTwoPi;
    }
    prev = raw;
    phases[i] = raw + offset;
  }
  return phases;
}

// Unwraps a series through the production PhaseUnwrapper.
std::vector<double> streamed(const std::vector<double>& wrapped) {
  PhaseUnwrapper u;
  std::vector<double> out;
  out.reserve(wrapped.size());
  for (const double w : wrapped) out.push_back(u.push(w));
  return out;
}

TEST(AngleConversion, DegreesRadians) {
  EXPECT_NEAR(deg2rad(180.0), kPi, 1e-12);
  EXPECT_NEAR(rad2deg(kPi / 2.0), 90.0, 1e-12);
  EXPECT_NEAR(rad2deg(deg2rad(33.3)), 33.3, 1e-12);
}

TEST(Wrap2Pi, MapsIntoRange) {
  EXPECT_NEAR(wrap_2pi(0.0), 0.0, 1e-12);
  EXPECT_NEAR(wrap_2pi(kTwoPi), 0.0, 1e-12);
  EXPECT_NEAR(wrap_2pi(-0.1), kTwoPi - 0.1, 1e-12);
  EXPECT_NEAR(wrap_2pi(7.0 * kPi), kPi, 1e-9);
  for (double a = -20.0; a < 20.0; a += 0.37) {
    const double w = wrap_2pi(a);
    EXPECT_GE(w, 0.0);
    EXPECT_LT(w, kTwoPi);
  }
}

TEST(WrapPi, MapsIntoRange) {
  EXPECT_NEAR(wrap_pi(kPi), kPi, 1e-12);
  EXPECT_NEAR(wrap_pi(-kPi), kPi, 1e-12);  // (-pi, pi] convention
  EXPECT_NEAR(wrap_pi(3.0 * kPi / 2.0), -kPi / 2.0, 1e-12);
  for (double a = -20.0; a < 20.0; a += 0.41) {
    const double w = wrap_pi(a);
    EXPECT_GT(w, -kPi - 1e-12);
    EXPECT_LE(w, kPi + 1e-12);
  }
}

TEST(Wrap2Pi, SeamBehavior) {
  // Exactly at and infinitesimally around the 0 / 2*pi seam.
  EXPECT_EQ(wrap_2pi(0.0), 0.0);
  EXPECT_LT(wrap_2pi(-1e-12), kTwoPi);           // wraps just below 2*pi
  EXPECT_NEAR(wrap_2pi(-1e-12), kTwoPi, 1e-11);
  EXPECT_NEAR(wrap_2pi(kTwoPi + 1e-12), 0.0, 1e-11);
  // Large multiples either side of the seam stay in range.
  EXPECT_GE(wrap_2pi(-100.0 * kTwoPi - 1e-9), 0.0);
  EXPECT_LT(wrap_2pi(100.0 * kTwoPi + 1e-9), kTwoPi);
  // -0.0 must not escape the [0, 2*pi) contract as a negative value.
  EXPECT_GE(wrap_2pi(-0.0), 0.0);
}

TEST(Wrap2Pi, NegativeInputs) {
  EXPECT_NEAR(wrap_2pi(-kPi), kPi, 1e-12);
  EXPECT_NEAR(wrap_2pi(-kTwoPi), 0.0, 1e-12);
  EXPECT_NEAR(wrap_2pi(-5.0 * kPi / 2.0), 3.0 * kPi / 2.0, 1e-12);
  for (double a = -50.0; a < 0.0; a += 0.113) {
    const double w = wrap_2pi(a);
    EXPECT_GE(w, 0.0) << a;
    EXPECT_LT(w, kTwoPi) << a;
    // Same point on the circle: sin/cos agree with the input.
    EXPECT_NEAR(std::sin(w), std::sin(a), 1e-9) << a;
    EXPECT_NEAR(std::cos(w), std::cos(a), 1e-9) << a;
  }
}

TEST(FoldPi, MatchesLegacyFmodFold) {
  // fold_pi replaced the hand-rolled `fmod(x, kPi); if (< 0) += kPi` folds
  // in wrist.cc / antenna.cc; it must be bit-identical to that logic.
  for (double a = -30.0; a < 30.0; a += 0.0917) {
    double legacy = std::fmod(a, kPi);  // polarlint-allow(R1): pins fold_pi against the legacy fold
    if (legacy < 0.0) legacy += kPi;
    EXPECT_EQ(fold_pi(a), legacy) << a;
  }
}

TEST(FoldPi, LineAngleSemantics) {
  // A projected line at theta and theta + pi is the same line.
  for (double a = -10.0; a < 10.0; a += 0.073) {
    const double f = fold_pi(a);
    EXPECT_GE(f, 0.0) << a;
    EXPECT_LT(f, kPi) << a;
    EXPECT_NEAR(fold_pi(a + kPi), f, 1e-9) << a;
    // tan is pi-periodic: the fold preserves it.
    if (std::fabs(std::cos(a)) > 1e-3) {
      EXPECT_NEAR(std::tan(f), std::tan(a), 1e-6 * (1.0 + std::fabs(std::tan(a))))
          << a;
    }
  }
  EXPECT_EQ(fold_pi(0.0), 0.0);
  EXPECT_NEAR(fold_pi(-1e-12), kPi, 1e-11);  // just below the seam folds high
}

TEST(AngleDiff, SignedShortestPath) {
  EXPECT_NEAR(angle_diff(0.1, 0.0), 0.1, 1e-12);
  EXPECT_NEAR(angle_diff(0.0, 0.1), -0.1, 1e-12);
  // Across the wrap.
  EXPECT_NEAR(angle_diff(0.1, kTwoPi - 0.1), 0.2, 1e-12);
  EXPECT_NEAR(angle_diff(kTwoPi - 0.1, 0.1), -0.2, 1e-12);
}

TEST(AngleDiff, Antisymmetry) {
  // angle_diff(a, b) == -angle_diff(b, a) everywhere except the branch cut
  // at exactly pi apart, where both sides return +pi by the (-pi, pi]
  // convention.
  for (double a = 0.0; a < kTwoPi; a += 0.237) {
    for (double b = 0.0; b < kTwoPi; b += 0.311) {
      const double ab = angle_diff(a, b);
      const double ba = angle_diff(b, a);
      if (std::fabs(std::fabs(ab) - kPi) < 1e-12) {
        EXPECT_NEAR(ba, kPi, 1e-12) << a << " " << b;
      } else {
        EXPECT_NEAR(ab, -ba, 1e-12) << a << " " << b;
      }
    }
  }
}

TEST(AngleDiff, SeamCrossing) {
  // Differences straddling the 0 / 2*pi seam take the short way around.
  EXPECT_NEAR(angle_diff(1e-9, kTwoPi - 1e-9), 2e-9, 1e-12);
  EXPECT_NEAR(angle_diff(kTwoPi - 1e-9, 1e-9), -2e-9, 1e-12);
  EXPECT_NEAR(angle_diff(0.0, kPi), kPi, 1e-12);  // branch cut: +pi
}

TEST(AngleDist, NonNegativeAndSymmetric) {
  for (double a = 0.0; a < kTwoPi; a += 0.7) {
    for (double b = 0.0; b < kTwoPi; b += 0.9) {
      EXPECT_GE(angle_dist(a, b), 0.0);
      EXPECT_LE(angle_dist(a, b), kPi + 1e-12);
      EXPECT_NEAR(angle_dist(a, b), angle_dist(b, a), 1e-12);
    }
  }
}

TEST(Unwrap, RecoversLinearRamp) {
  // A steadily growing phase wrapped to [0, 2*pi) must unwrap back to
  // the original ramp (up to the starting offset).
  std::vector<double> wrapped;
  for (int i = 0; i < 100; ++i) {
    wrapped.push_back(wrap_2pi(0.3 * i));
  }
  const auto un = streamed(wrapped);
  for (int i = 1; i < 100; ++i) {
    EXPECT_NEAR(un[i] - un[i - 1], 0.3, 1e-9) << "at " << i;
  }
}

TEST(Unwrap, HandlesNegativeRamp) {
  std::vector<double> wrapped;
  for (int i = 0; i < 80; ++i) wrapped.push_back(wrap_2pi(-0.4 * i));
  const auto un = streamed(wrapped);
  for (int i = 1; i < 80; ++i) {
    EXPECT_NEAR(un[i] - un[i - 1], -0.4, 1e-9);
  }
}

TEST(PhaseUnwrapper, StreamingMatchesBatch) {
  std::vector<double> wrapped;
  for (int i = 0; i < 60; ++i) {
    wrapped.push_back(wrap_2pi(0.05 * i * i - 1.3 * i));
  }
  const auto batch = unwrapped(wrapped);
  PhaseUnwrapper u;
  for (std::size_t i = 0; i < wrapped.size(); ++i) {
    const double streamed = u.push(wrapped[i]);
    EXPECT_NEAR(streamed, batch[i], 1e-9) << "at " << i;
  }
}

TEST(PhaseUnwrapper, SteepRampAcrossManyWraps) {
  // A ramp just under the Nyquist step (pi per sample) wraps on almost
  // every sample; the unwrapper must still recover the full excursion.
  const double step = 3.0;  // < pi
  PhaseUnwrapper u;
  double last = 0.0;
  for (int i = 0; i < 500; ++i) {
    last = u.push(wrap_2pi(step * i));
  }
  EXPECT_NEAR(last, step * 499, 1e-6);
  // And back down again, re-crossing every wrap in reverse.
  for (int i = 498; i >= 0; --i) {
    last = u.push(wrap_2pi(step * i));
  }
  EXPECT_NEAR(last, 0.0, 1e-6);
  EXPECT_GT(u.value(), -1e-6);
}

TEST(PhaseUnwrapper, ResetClearsState) {
  PhaseUnwrapper u;
  u.push(1.0);
  u.push(2.0);
  u.reset();
  EXPECT_FALSE(u.has_value());
  EXPECT_NEAR(u.push(5.0), 5.0, 1e-12);
}

}  // namespace
}  // namespace polardraw
