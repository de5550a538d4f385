// Parameterized property tests: invariants swept across parameter spaces
// (gtest TEST_P / INSTANTIATE_TEST_SUITE_P).
#include <gtest/gtest.h>

#include "common/angles.h"
#include "common/rng.h"
#include "common/units.h"
#include "em/polarization.h"
#include "em/propagation.h"
#include "em/tag.h"
#include "handwriting/stroke_font.h"
#include "handwriting/synthesizer.h"
#include "handwriting/wrist.h"
#include "recognition/procrustes.h"
#include "rfid/modulation.h"

namespace polardraw {
namespace {

// ---------------------------------------------------------------------------
// Property: Eq. 1 and its inverse round-trip for every elevation/azimuth.
// ---------------------------------------------------------------------------
class Eq1RoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(Eq1RoundTrip, InverseRecoversAzimuth) {
  const double elevation = GetParam();
  for (double az = 0.3; az < kPi - 0.3; az += 0.05) {
    const double ar = em::rotation_angle_from_pen({elevation, az});
    const double back =
        handwriting::WristModel::azimuth_from_rotation(ar, elevation);
    EXPECT_NEAR(back, az, 1e-6)
        << "elevation " << rad2deg(elevation) << " azimuth " << rad2deg(az);
  }
}

INSTANTIATE_TEST_SUITE_P(Elevations, Eq1RoundTrip,
                         ::testing::Values(deg2rad(10.0), deg2rad(20.0),
                                           deg2rad(30.0), deg2rad(40.0),
                                           deg2rad(50.0)));

// ---------------------------------------------------------------------------
// Property: polarization mismatch is symmetric, bounded, and invariant to
// axis sign flips, for many axis pairs.
// ---------------------------------------------------------------------------
class MismatchProperty : public ::testing::TestWithParam<int> {};

TEST_P(MismatchProperty, SymmetricBoundedSignInvariant) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 50; ++i) {
    const Vec3 a = Vec3{rng.gaussian(), rng.gaussian(), rng.gaussian()}
                       .normalized();
    const Vec3 b = Vec3{rng.gaussian(), rng.gaussian(), rng.gaussian()}
                       .normalized();
    const Vec3 los = Vec3{rng.gaussian(), rng.gaussian(), rng.gaussian()}
                         .normalized();
    if (a == Vec3{} || b == Vec3{} || los == Vec3{}) continue;
    const double m1 = em::mismatch_angle(a, b, los);
    const double m2 = em::mismatch_angle(b, a, los);
    EXPECT_NEAR(m1, m2, 1e-9);
    EXPECT_GE(m1, 0.0);
    EXPECT_LE(m1, kPi / 2.0 + 1e-9);
    EXPECT_NEAR(em::mismatch_angle(-a, b, los), m1, 1e-9);
    EXPECT_NEAR(em::mismatch_angle(a, -b, los), m1, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MismatchProperty, ::testing::Range(1, 6));

// ---------------------------------------------------------------------------
// Property: Malus factors bounded and complementary mismatches sum to 1.
// ---------------------------------------------------------------------------
class MalusProperty : public ::testing::TestWithParam<double> {};

TEST_P(MalusProperty, ComplementAndBounds) {
  const double beta = GetParam();
  const double m = em::malus_factor(beta);
  EXPECT_GE(m, 0.0);
  EXPECT_LE(m, 1.0);
  EXPECT_NEAR(m + em::malus_factor(kPi / 2.0 - beta), 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Angles, MalusProperty,
                         ::testing::Values(0.0, 0.2, 0.5, 0.8, 1.1, 1.4,
                                           kPi / 2.0));

// ---------------------------------------------------------------------------
// Property: the complex coupling's power never exceeds the ideal Malus
// power plus the leak, and its phase stays within [0, pi].
// ---------------------------------------------------------------------------
class CouplingProperty
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(CouplingProperty, PowerAndPhaseEnvelope) {
  const auto [beta, xpd] = GetParam();
  const auto c = em::complex_field_coupling(beta, xpd);
  const double leak = db_to_ratio(-xpd);
  EXPECT_LE(std::norm(c), em::malus_factor(beta) + leak + 1e-12);
  const double phase = std::arg(c * c);
  EXPECT_GE(phase, -1e-12);
  EXPECT_LE(phase, kPi + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CouplingProperty,
    ::testing::Combine(::testing::Values(0.0, 0.4, 0.8, 1.2, kPi / 2.0),
                       ::testing::Values(15.0, 22.0, 30.0)));

// ---------------------------------------------------------------------------
// Property: Procrustes distance is invariant under similarity transforms of
// the probe, across random shapes and transforms.
// ---------------------------------------------------------------------------
class ProcrustesInvariance : public ::testing::TestWithParam<int> {};

TEST_P(ProcrustesInvariance, SimilarityTransformsFreely) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  std::vector<Vec2> shape;
  for (int i = 0; i < 30; ++i) {
    shape.push_back({rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)});
  }
  const double rot = rng.uniform(-0.6, 0.6);  // within the default clamp
  const double scale = rng.uniform(0.3, 3.0);
  const Vec2 shift{rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)};
  std::vector<Vec2> moved;
  for (const Vec2& p : shape) moved.push_back(p.rotated(rot) * scale + shift);
  const auto r = recognition::procrustes(shape, moved);
  EXPECT_LT(r.normalized, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProcrustesInvariance, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Property: arc-length resampling preserves total length approximately and
// never leaves the polyline's bounding box, for every glyph.
// ---------------------------------------------------------------------------
class ResampleGlyph : public ::testing::TestWithParam<char> {};

TEST_P(ResampleGlyph, StaysInBoxAndKeepsLength) {
  const char c = GetParam();
  const auto poly = handwriting::flatten_strokes(
      handwriting::glyph_for(c).strokes);
  const auto r = recognition::resample_by_arclength(poly, 80);
  double xmin = 1e9, xmax = -1e9, ymin = 1e9, ymax = -1e9;
  for (const auto& p : poly) {
    xmin = std::min(xmin, p.x);
    xmax = std::max(xmax, p.x);
    ymin = std::min(ymin, p.y);
    ymax = std::max(ymax, p.y);
  }
  double len_orig = 0.0, len_res = 0.0;
  for (std::size_t i = 1; i < poly.size(); ++i) len_orig += poly[i].dist(poly[i - 1]);
  for (std::size_t i = 1; i < r.size(); ++i) len_res += r[i].dist(r[i - 1]);
  EXPECT_NEAR(len_res, len_orig, 0.05 * len_orig) << c;
  for (const auto& p : r) {
    EXPECT_GE(p.x, xmin - 1e-9);
    EXPECT_LE(p.x, xmax + 1e-9);
    EXPECT_GE(p.y, ymin - 1e-9);
    EXPECT_LE(p.y, ymax + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Alphabet, ResampleGlyph,
                         ::testing::Range('A', static_cast<char>('Z' + 1)));

// ---------------------------------------------------------------------------
// Property: modulation schemes trade rate for SNR monotonically.
// ---------------------------------------------------------------------------
TEST(ModulationProperty, RateSnrTradeoffMonotone) {
  double prev_rate = 1e9, prev_gain = 0.0;
  for (const auto m : rfid::kAllModulations) {
    EXPECT_LT(rfid::rate_factor(m), prev_rate + 1e-12);
    EXPECT_GT(rfid::snr_gain(m), prev_gain - 1e-12);
    prev_rate = rfid::rate_factor(m);
    prev_gain = rfid::snr_gain(m);
  }
}

// ---------------------------------------------------------------------------
// Property: pen axis stays unit length and Eq. 1's projection agrees with
// explicitly projecting the axis onto the board plane, across the grid.
// ---------------------------------------------------------------------------
class PenAxisProjection
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(PenAxisProjection, MatchesExplicitProjection) {
  const auto [elev_deg, az_deg] = GetParam();
  const em::PenAngles angles{deg2rad(elev_deg), deg2rad(az_deg)};
  const Vec3 axis = em::pen_axis(angles);
  EXPECT_NEAR(axis.norm(), 1.0, 1e-12);
  const double ar = em::rotation_angle_from_pen(angles);
  // The projected line angle (mod pi) must match atan2 of the X-Y parts.
  const double explicit_angle = std::atan2(axis.y, axis.x);
  const double diff = fold_pi(std::fabs(ar - explicit_angle));
  EXPECT_LT(std::min(diff, kPi - diff), 1e-6)
      << "elev " << elev_deg << " az " << az_deg;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PenAxisProjection,
    ::testing::Combine(::testing::Values(15.0, 30.0, 45.0),
                       ::testing::Values(20.0, 60.0, 100.0, 140.0, 160.0)));

}  // namespace
}  // namespace polardraw
