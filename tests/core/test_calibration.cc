// Tests for the reference-tag calibration.
#include <gtest/gtest.h>

#include <limits>

#include "common/angles.h"
#include "core/calibration.h"
#include "core/polardraw.h"
#include "em/constants.h"
#include "obs/metrics.h"
#include "recognition/procrustes.h"
#include "sim/scene.h"

namespace polardraw::core {
namespace {

// ---------------------------------------------------------------------------
// Reference-tag calibration
// ---------------------------------------------------------------------------
class CalibrationTest : public ::testing::Test {
 protected:
  CalibrationTest() : scene_(make_scene()) {}
  static sim::Scene make_scene() {
    sim::SceneConfig cfg;
    cfg.seed = 13;
    cfg.clutter_count = 0;  // calibration is done in a quiet setup
    return sim::Scene(cfg);
  }

  /// Runs a static reference tag for `seconds` and returns the reports.
  rfid::TagReportStream reference_run(Vec3 pos, double seconds) {
    handwriting::WritingTrace trace;
    for (int i = 0; i <= static_cast<int>(seconds / 0.005); ++i) {
      handwriting::TraceSample s;
      s.t_s = i * 0.005;
      s.pen_tip = pos;
      s.tag_pos = pos;
      s.angles = {deg2rad(30.0), deg2rad(90.0)};
      trace.samples.push_back(s);
    }
    return scene_.run(trace);
  }

  sim::Scene scene_;
};

TEST_F(CalibrationTest, RecoversPortOffsets) {
  const Vec3 ref_pos{0.5, 0.25, 0.0};
  const auto reports = reference_run(ref_pos, 3.0);
  CalibrationSetup setup;
  setup.tag_position = ref_pos;
  for (const auto& a : scene_.antennas()) {
    setup.antenna_positions.push_back(a.position);
  }
  const auto result = calibrate_from_reference(reports, setup);
  ASSERT_TRUE(result.has_value());
  const auto& truth = scene_.reader().port_phase_offsets();
  ASSERT_EQ(result->calibration.port_offsets_rad.size(), truth.size());
  for (std::size_t p = 0; p < truth.size(); ++p) {
    EXPECT_LT(angle_dist(result->calibration.port_offsets_rad[p], truth[p]),
              0.25)
        << "port " << p;
    EXPECT_LT(result->residual_std_rad[p], 0.3);
    EXPECT_GE(result->reads_used[p], 10);
  }
}

TEST_F(CalibrationTest, SelfCalibratedTrackingWorks) {
  // Full deployment flow: calibrate with a reference tag, then track a
  // letter using the ESTIMATED offsets instead of the simulator's truth.
  const Vec3 ref_pos{0.5, 0.25, 0.0};
  const auto ref_reports = reference_run(ref_pos, 3.0);
  CalibrationSetup setup;
  setup.tag_position = ref_pos;
  for (const auto& a : scene_.antennas()) {
    setup.antenna_positions.push_back(a.position);
  }
  const auto cal = calibrate_from_reference(ref_reports, setup);
  ASSERT_TRUE(cal.has_value());

  Rng rng(21);
  handwriting::SynthesisConfig synth;
  const auto trace = handwriting::synthesize("O", synth, rng);
  const auto reports = scene_.run(trace);

  PolarDrawConfig algo;
  const auto apos = scene_.antenna_board_positions();
  PolarDraw tracker(algo, apos[0], apos[1], 0.12);
  const auto res = tracker.track(reports, &cal->calibration);
  ASSERT_GT(res.trajectory.size(), 40u);
  const auto truth_poly = handwriting::flatten_strokes(trace.ground_truth);
  EXPECT_LT(recognition::procrustes_distance(truth_poly, res.trajectory),
            0.10);
}

TEST(Calibration, RejectsInsufficientData) {
  CalibrationSetup setup;
  setup.tag_position = Vec3{0.5, 0.25, 0.0};
  setup.antenna_positions = {Vec3{0.2, 1.25, 0.12}, Vec3{0.8, 1.25, 0.12}};
  rfid::TagReportStream few;
  for (int i = 0; i < 5; ++i) {
    rfid::TagReport r;
    r.antenna_id = i % 2;
    r.phase_rad = 1.0;
    few.push_back(r);
  }
  EXPECT_FALSE(calibrate_from_reference(few, setup, 10).has_value());
  EXPECT_FALSE(calibrate_from_reference({}, setup).has_value());
  EXPECT_FALSE(
      calibrate_from_reference(few, CalibrationSetup{}).has_value());
}

TEST(Calibration, NoiselessReferenceRecoversOffsetsExactly) {
  // Noiseless reads phased at the reader's own carrier: the default
  // setup's wavelength must be that carrier, or every offset comes back
  // biased (by 5.2e-3 rad here with a rounded 0.3276 m).
  CalibrationSetup setup;
  setup.tag_position = Vec3{0.5, 0.25, 0.0};
  setup.antenna_positions = {Vec3{0.2, 1.25, 0.12}, Vec3{0.8, 1.25, 0.12}};
  const std::vector<double> offsets = {1.0, 4.0};
  rfid::TagReportStream reads;
  for (int i = 0; i < 40; ++i) {
    rfid::TagReport r;
    r.timestamp_s = 0.01 * i;
    r.antenna_id = i % 2;
    const double d = setup.antenna_positions[static_cast<std::size_t>(
                                                 r.antenna_id)]
                         .dist(setup.tag_position);
    r.phase_rad = wrap_2pi(4.0 * kPi * d / em::kDefaultWavelength +
                           offsets[static_cast<std::size_t>(r.antenna_id)]);
    reads.push_back(r);
  }
  const auto got = calibrate_from_reference(reads, setup);
  ASSERT_TRUE(got.has_value());
  for (std::size_t p = 0; p < offsets.size(); ++p) {
    EXPECT_NEAR(got->calibration.port_offsets_rad[p], offsets[p], 1e-9)
        << "port " << p;
  }
}

TEST(Calibration, SkipsNonFiniteReads) {
  // Read 7's NaN phase would turn port 1's offset NaN. It is dropped and
  // counted instead: the offsets, spreads and read counts are exactly
  // those of the stream without it.
  CalibrationSetup setup;
  setup.tag_position = Vec3{0.5, 0.25, 0.0};
  setup.antenna_positions = {Vec3{0.2, 1.25, 0.12}, Vec3{0.8, 1.25, 0.12}};
  rfid::TagReportStream clean, with_nan;
  for (int i = 0; i < 40; ++i) {
    rfid::TagReport r;
    r.timestamp_s = 0.01 * i;
    r.antenna_id = i % 2;
    r.phase_rad = wrap_2pi(1.0 + 2.0 * r.antenna_id + 0.05 * (i % 5));
    if (i == 7) {
      r.phase_rad = std::numeric_limits<double>::quiet_NaN();
    } else {
      clean.push_back(r);
    }
    with_nan.push_back(r);
  }
  const auto want = calibrate_from_reference(clean, setup);
  ASSERT_TRUE(want.has_value());
  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(true);
  reg.reset();
  const auto got = calibrate_from_reference(with_nan, setup);
  const std::uint64_t dropped =
      reg.snapshot().counter("preprocess.nonfinite_reports");
  reg.reset();
  reg.set_enabled(false);
  EXPECT_EQ(dropped, 1u);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->calibration.port_offsets_rad,
            want->calibration.port_offsets_rad);
  EXPECT_EQ(got->residual_std_rad, want->residual_std_rad);
  EXPECT_EQ(got->reads_used, want->reads_used);
  EXPECT_EQ(got->reads_used, (std::vector<int>{20, 19}));
}

}  // namespace
}  // namespace polardraw::core
