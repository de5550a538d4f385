#include "sim/scene.h"

#include <gtest/gtest.h>

#include "common/angles.h"

namespace polardraw::sim {
namespace {

handwriting::WritingTrace simple_trace() {
  handwriting::WritingTrace trace;
  for (int i = 0; i <= 400; ++i) {
    handwriting::TraceSample s;
    s.t_s = i * 0.005;
    s.pen_tip = Vec3{0.4 + 0.0002 * i, 0.25, 0.0};
    s.angles = em::PenAngles{deg2rad(30.0), deg2rad(90.0)};
    s.tag_pos = s.pen_tip + em::pen_axis(s.angles) * 0.03;
    trace.samples.push_back(s);
  }
  trace.duration_s = 2.0;
  return trace;
}

TEST(BuildRig, PolarDrawTwoLinearAntennas) {
  SceneConfig cfg;
  cfg.layout = RigLayout::kPolarDrawTwoAntenna;
  const auto rig = build_rig(cfg);
  ASSERT_EQ(rig.size(), 2u);
  for (const auto& a : rig) {
    EXPECT_EQ(a.mode, em::PolarizationMode::kLinear);
    // Looking down at the writing area.
    EXPECT_NEAR(a.boresight.y, -1.0, 1e-12);
    // Polarization axis in the X-Z plane.
    EXPECT_NEAR(a.polarization_axis.y, 0.0, 1e-12);
  }
  // Axes at +/- gamma around Z: symmetric x components.
  EXPECT_NEAR(rig[0].polarization_axis.x, -rig[1].polarization_axis.x, 1e-9);
  // Antenna spacing as configured.
  EXPECT_NEAR(rig[0].position.dist(rig[1].position), kAntennaSpacingM,
              1e-9);
}

TEST(BuildRig, StandoffControlsTagReaderDistance) {
  SceneConfig near_cfg, far_cfg;
  near_cfg.antenna_standoff_m = 0.4;
  far_cfg.antenna_standoff_m = 1.2;
  const auto near_rig = build_rig(near_cfg);
  const auto far_rig = build_rig(far_cfg);
  EXPECT_LT(near_rig[0].position.y, far_rig[0].position.y);
}

TEST(BuildRig, BaselineRigsCircular) {
  for (auto layout : {RigLayout::kTagoramTwoAntenna,
                      RigLayout::kTagoramFourAntenna,
                      RigLayout::kRfIdrawFourAntenna}) {
    SceneConfig cfg;
    cfg.layout = layout;
    const auto rig = build_rig(cfg);
    for (const auto& a : rig) {
      EXPECT_EQ(a.mode, em::PolarizationMode::kCircular);
    }
  }
  SceneConfig cfg;
  cfg.layout = RigLayout::kTagoramFourAntenna;
  EXPECT_EQ(build_rig(cfg).size(), 4u);
  cfg.layout = RigLayout::kRfIdrawFourAntenna;
  EXPECT_EQ(build_rig(cfg).size(), 4u);
}

TEST(TagAtTime, InterpolatesPosition) {
  const auto trace = simple_trace();
  const auto tag = tag_at_time(trace, 1.0);
  // At t = 1.0 the tip is at x = 0.4 + 0.0002*200 = 0.44.
  EXPECT_NEAR(tag.position.x, 0.44 + 0.0, 0.01);
  // Clamps at the ends.
  EXPECT_NEAR(tag_at_time(trace, -5.0).position.x,
              trace.samples.front().tag_pos.x, 1e-9);
  EXPECT_NEAR(tag_at_time(trace, 99.0).position.x,
              trace.samples.back().tag_pos.x, 1e-9);
}

TEST(TagAtTime, DipoleFollowsPenAngles) {
  const auto trace = simple_trace();
  const auto tag = tag_at_time(trace, 0.5);
  const Vec3 expect = em::pen_axis({deg2rad(30.0), deg2rad(90.0)});
  EXPECT_NEAR(tag.dipole_axis.dot(expect), 1.0, 1e-6);
}

TEST(Scene, RunProducesReports) {
  SceneConfig cfg;
  cfg.seed = 3;
  Scene scene(cfg);
  const auto reports = scene.run(simple_trace());
  EXPECT_GT(reports.size(), 100u);
  for (const auto& r : reports) {
    EXPECT_GE(r.antenna_id, 0);
    EXPECT_LT(r.antenna_id, 2);
    EXPECT_GE(r.phase_rad, 0.0);
    EXPECT_LT(r.phase_rad, kTwoPi);
    EXPECT_GT(r.rss_dbm, -120.0);
    EXPECT_LT(r.rss_dbm, 0.0);
  }
}

TEST(Scene, DeterministicGivenSeed) {
  SceneConfig cfg;
  cfg.seed = 17;
  Scene a(cfg), b(cfg);
  const auto trace = simple_trace();
  const auto ra = a.run(trace);
  const auto rb = b.run(trace);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); i += 13) {
    EXPECT_EQ(ra[i].phase_rad, rb[i].phase_rad);
    EXPECT_EQ(ra[i].rss_dbm, rb[i].rss_dbm);
  }
}

TEST(Scene, DifferentSeedsDiffer) {
  SceneConfig ca, cb;
  ca.seed = 1;
  cb.seed = 2;
  Scene a(ca), b(cb);
  const auto trace = simple_trace();
  const auto ra = a.run(trace);
  const auto rb = b.run(trace);
  bool differ = ra.size() != rb.size();
  for (std::size_t i = 0; !differ && i < ra.size(); ++i) {
    differ = ra[i].phase_rad != rb[i].phase_rad;
  }
  EXPECT_TRUE(differ);
}

TEST(Scene, BystanderScattererInjectable) {
  SceneConfig cfg;
  Scene scene(cfg);
  const std::size_t before = scene.reader().channel().scatterers().size();
  scene.add_scatterer(
      channel::make_bystander_walking(0.3, Vec3{0.5, 0.25, 0.0}));
  EXPECT_EQ(scene.reader().channel().scatterers().size(), before + 1);
}

TEST(Scene, AntennaBoardPositions) {
  SceneConfig cfg;
  Scene scene(cfg);
  const auto pos = scene.antenna_board_positions();
  ASSERT_EQ(pos.size(), 2u);
  EXPECT_NEAR(pos[0].x + pos[1].x, cfg.board_width_m, 1e-9);
}

TEST(Scene, EmptyTraceNoReports) {
  SceneConfig cfg;
  Scene scene(cfg);
  EXPECT_TRUE(scene.run(handwriting::WritingTrace{}).empty());
}

}  // namespace
}  // namespace polardraw::sim
