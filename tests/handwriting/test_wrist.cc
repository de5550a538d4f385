#include "handwriting/wrist.h"

#include <gtest/gtest.h>

#include "common/angles.h"
#include "em/tag.h"
#include "handwriting/user.h"

namespace polardraw::handwriting {
namespace {

PathSample sample(double t, Vec2 pos, Vec2 vel, bool down = true) {
  return PathSample{t, pos, vel, down};
}

TEST(AzimuthFromRotation, InvertsEquationOne) {
  // Round trip: alpha_a -> Eq.1 -> alpha_r -> inverse -> alpha_a.
  const double ae = deg2rad(30.0);
  for (double az = deg2rad(20.0); az < deg2rad(160.0); az += 0.1) {
    const double ar = em::rotation_angle_from_pen({ae, az});
    const double back = WristModel::azimuth_from_rotation(ar, ae);
    EXPECT_NEAR(back, az, 1e-6) << "azimuth " << rad2deg(az);
  }
}

TEST(AzimuthFromRotation, VerticalProjectionIsNeutral) {
  EXPECT_NEAR(WristModel::azimuth_from_rotation(kPi / 2.0, deg2rad(30.0)),
              kPi / 2.0, 1e-9);
}

TEST(AzimuthFromRotation, SaturatesAtClamp) {
  // A nearly horizontal projection demands an impossible azimuth; the
  // inverse saturates at the clamp.
  const double az = WristModel::azimuth_from_rotation(0.05, deg2rad(30.0));
  EXPECT_NEAR(az, kMinAzimuthRad, 1e-9);
}

TEST(WristModel, RightwardStrokeRotatesClockwise) {
  WristStyle style;
  style.tremor_rad = 0.0;
  style.elevation_wander_rad = 0.0;
  WristModel wrist(style, Rng(1));

  // Settle at the start, then sweep right with the hand resting.
  double az_start = 0.0, az_end = 0.0;
  for (int i = 0; i <= 100; ++i) {
    const double t = i * 0.01;
    const Vec2 pos{0.3 + 0.0008 * i, 0.2};
    const auto angles = wrist.step(sample(t, pos, {0.08, 0.0}));
    if (i == 5) az_start = angles.azimuth_rad;
    az_end = angles.azimuth_rad;
  }
  // Moving right: azimuth decreases (clockwise), per section 3.2.
  EXPECT_LT(az_end, az_start - deg2rad(10.0));
}

TEST(WristModel, LeftwardStrokeRotatesCounterClockwise) {
  WristStyle style;
  style.tremor_rad = 0.0;
  style.elevation_wander_rad = 0.0;
  WristModel wrist(style, Rng(1));
  double az_start = 0.0, az_end = 0.0;
  for (int i = 0; i <= 100; ++i) {
    const double t = i * 0.01;
    const Vec2 pos{0.5 - 0.0008 * i, 0.2};
    const auto angles = wrist.step(sample(t, pos, {-0.08, 0.0}));
    if (i == 5) az_start = angles.azimuth_rad;
    az_end = angles.azimuth_rad;
  }
  EXPECT_GT(az_end, az_start + deg2rad(10.0));
}

TEST(WristModel, VerticalStrokeBarelyRotates) {
  WristStyle style;
  style.tremor_rad = 0.0;
  style.elevation_wander_rad = 0.0;
  WristModel wrist(style, Rng(1));
  double az_min = 10.0, az_max = -10.0;
  for (int i = 0; i <= 100; ++i) {
    const double t = i * 0.01;
    const Vec2 pos{0.4, 0.30 - 0.0008 * i};
    const auto angles = wrist.step(sample(t, pos, {0.0, -0.08}));
    if (i >= 5) {
      az_min = std::min(az_min, angles.azimuth_rad);
      az_max = std::max(az_max, angles.azimuth_rad);
    }
  }
  EXPECT_LT(az_max - az_min, deg2rad(12.0));
}

TEST(WristModel, PenUpRepositionsPivot) {
  WristStyle style;
  style.tremor_rad = 0.0;
  WristModel wrist(style, Rng(1));
  wrist.step(sample(0.0, {0.3, 0.2}, {}, true));
  // Jump far away with pen up: pivot follows.
  wrist.step(sample(0.1, {0.6, 0.4}, {}, false));
  const Vec2 expected = Vec2{0.6, 0.4} + style.pivot_offset;
  EXPECT_NEAR(wrist.pivot().x, expected.x, 1e-9);
  EXPECT_NEAR(wrist.pivot().y, expected.y, 1e-9);
}

TEST(WristModel, ElevationStaysNearMean) {
  WristStyle style;
  WristModel wrist(style, Rng(7));
  for (int i = 0; i < 400; ++i) {
    const auto angles =
        wrist.step(sample(i * 0.005, {0.4 + 0.0004 * i, 0.2}, {0.08, 0.0}));
    EXPECT_NEAR(angles.elevation_rad, kElevationRad, 0.21);
  }
}

TEST(WristModel, AzimuthWithinPhysicalRange) {
  WristStyle style;
  WristModel wrist(style, Rng(3));
  for (int i = 0; i < 500; ++i) {
    // Erratic movement.
    const Vec2 pos{0.4 + 0.1 * std::sin(i * 0.21), 0.25 + 0.1 * std::cos(i * 0.17)};
    const auto angles = wrist.step(sample(i * 0.005, pos, {}));
    EXPECT_GE(angles.azimuth_rad, deg2rad(8.0) - 1e-9);
    EXPECT_LE(angles.azimuth_rad, deg2rad(172.0) + 1e-9);
  }
}

TEST(UserStyles, FourDistinctUsers) {
  for (int id = 1; id <= 4; ++id) {
    const UserStyle u = user_style(id);
    EXPECT_EQ(u.id, id);
    EXPECT_GT(u.kinematics.cruise_speed, 0.0);
  }
  EXPECT_THROW(user_style(0), std::out_of_range);
  EXPECT_THROW(user_style(5), std::out_of_range);
}

TEST(UserStyles, StiffUserRotatesLess) {
  // User 2's "stiff" style: same stroke, much smaller azimuth swing.
  auto swing_for = [](const UserStyle& u) {
    WristStyle style = u.wrist;
    style.tremor_rad = 0.0;
    style.elevation_wander_rad = 0.0;
    WristModel wrist(style, Rng(1));
    double az_min = 10.0, az_max = -10.0;
    for (int i = 0; i <= 150; ++i) {
      const auto angles = wrist.step(
          sample(i * 0.01, {0.3 + 0.001 * i, 0.2}, {0.1, 0.0}));
      if (i >= 5) {
        az_min = std::min(az_min, angles.azimuth_rad);
        az_max = std::max(az_max, angles.azimuth_rad);
      }
    }
    return az_max - az_min;
  };
  EXPECT_LT(swing_for(user_style(2)), swing_for(user_style(1)) * 0.5);
}

}  // namespace
}  // namespace polardraw::handwriting
