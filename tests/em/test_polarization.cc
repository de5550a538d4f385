#include "em/polarization.h"

#include <gtest/gtest.h>

#include "common/angles.h"
#include "common/units.h"

#include <cmath>

namespace polardraw::em {
namespace {

const Vec3 kDown{0.0, -1.0, 0.0};  // LOS looking down at the board

TEST(TransverseComponent, RemovesParallelPart) {
  const Vec3 axis{0.3, 0.8, 0.5};
  const Vec3 t = transverse_component(axis, kDown);
  EXPECT_NEAR(t.dot(kDown), 0.0, 1e-12);
  EXPECT_NEAR(t.norm(), 1.0, 1e-12);
}

TEST(TransverseComponent, DegenerateParallelAxisIsZero) {
  EXPECT_EQ(transverse_component(kDown, kDown), Vec3{});
  EXPECT_EQ(transverse_component(kDown * 3.0, kDown), Vec3{});
}

TEST(MismatchAngle, AlignedIsZero) {
  const Vec3 a{1.0, 0.0, 0.0};
  EXPECT_NEAR(mismatch_angle(a, a, kDown), 0.0, 1e-12);
}

TEST(MismatchAngle, OrthogonalIsHalfPi) {
  const Vec3 a{1.0, 0.0, 0.0}, b{0.0, 0.0, 1.0};
  EXPECT_NEAR(mismatch_angle(a, b, kDown), kPi / 2.0, 1e-12);
}

TEST(MismatchAngle, AxisNotVector) {
  // Polarization is orientation-less: opposite vectors are aligned.
  const Vec3 a{1.0, 0.0, 0.0}, b{-1.0, 0.0, 0.0};
  EXPECT_NEAR(mismatch_angle(a, b, kDown), 0.0, 1e-12);
}

TEST(MismatchAngle, MatchesPlanarAngleUnderVerticalLos) {
  // With the LOS along -Y, two axes in the X-Z plane should have mismatch
  // equal to their planar angle difference (folded to [0, pi/2]).
  for (double a1 = 0.0; a1 < kPi; a1 += 0.3) {
    for (double a2 = 0.0; a2 < kPi; a2 += 0.4) {
      const Vec3 v1{std::cos(a1), 0.0, std::sin(a1)};
      const Vec3 v2{std::cos(a2), 0.0, std::sin(a2)};
      double expect = std::fabs(a1 - a2);
      if (expect > kPi / 2.0) expect = kPi - expect;
      EXPECT_NEAR(mismatch_angle(v1, v2, kDown), expect, 1e-9)
          << "a1=" << a1 << " a2=" << a2;
    }
  }
}

TEST(MismatchAngle, DegenerateAxisIsFullMismatch) {
  EXPECT_NEAR(mismatch_angle(kDown, Vec3{1, 0, 0}, kDown), kPi / 2.0, 1e-12);
}

TEST(Malus, KnownValues) {
  EXPECT_NEAR(malus_factor(0.0), 1.0, 1e-12);
  EXPECT_NEAR(malus_factor(kPi / 2.0), 0.0, 1e-12);
  EXPECT_NEAR(malus_factor(kPi / 4.0), 0.5, 1e-12);
  EXPECT_NEAR(malus_factor(kPi / 3.0), 0.25, 1e-12);
}

TEST(ComplexCoupling, CoPolarAtZeroMismatch) {
  const auto c = complex_field_coupling(0.0, 20.0);
  EXPECT_NEAR(c.real(), 1.0, 1e-12);
  EXPECT_NEAR(c.imag(), 0.0, 1e-12);
}

TEST(ComplexCoupling, LeakDominatesAtFullMismatch) {
  const auto c = complex_field_coupling(kPi / 2.0, 20.0);
  EXPECT_NEAR(c.real(), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(c), 0.1, 1e-12);  // -20 dB amplitude
}

TEST(ComplexCoupling, PowerFloorMatchesXpd) {
  // Round-trip power at full mismatch = leak^4 power = -2*XPD dB.
  const auto c = complex_field_coupling(kPi / 2.0, 15.0);
  const double round_trip_power = std::norm(c * c);
  // polarlint-allow(R2): pins the raw 10*log10 formula the units.h helpers reproduce
  EXPECT_NEAR(10.0 * std::log10(round_trip_power), -2.0 * 15.0, 1e-9);
}

TEST(ComplexCoupling, DbToAmplitudeRatioPinsLegacyExpression) {
  // complex_field_coupling's leak amplitude used to be computed inline as
  // pow(10.0, -xpd_db / 20.0); the units.h helper must be bit-identical so
  // the refactor cannot move any decode output.
  for (double xpd_db = 0.0; xpd_db <= 40.0; xpd_db += 0.7) {
    // polarlint-allow(R2): pins db_to_amplitude_ratio against the legacy inline expression
    const double legacy = std::pow(10.0, -xpd_db / 20.0);
    EXPECT_EQ(db_to_amplitude_ratio(-xpd_db), legacy) << xpd_db;
    const auto c = complex_field_coupling(kPi / 2.0, xpd_db);
    EXPECT_EQ(c.imag(), legacy) << xpd_db;  // full mismatch: pure leak
  }
  // The 20-per-decade field convention: amplitude ratio squared = power ratio.
  for (double db = -30.0; db <= 30.0; db += 1.3) {
    const double amp = db_to_amplitude_ratio(db);
    EXPECT_NEAR(amp * amp, db_to_ratio(db), 1e-12 * db_to_ratio(db)) << db;
  }
}

TEST(ComplexCoupling, PhaseGlidesMonotonically) {
  double prev = 0.0;
  for (double b = 0.0; b < kPi / 2.0; b += 0.05) {
    const auto c = complex_field_coupling(b, 18.0);
    const double phase = std::arg(c * c);
    EXPECT_GE(phase, prev - 1e-12) << "beta=" << b;
    prev = phase;
  }
}

}  // namespace
}  // namespace polardraw::em
