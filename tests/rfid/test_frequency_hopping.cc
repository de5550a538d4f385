// Tests for the frequency-hopping reader mode.
#include <gtest/gtest.h>

#include "common/angles.h"
#include "core/polardraw.h"
#include "eval/harness.h"
#include "rfid/reader.h"

namespace polardraw::rfid {
namespace {

em::ReaderAntenna hop_antenna() {
  em::ReaderAntenna a = em::make_linear_antenna(Vec3{0.5, 1.25, 0.12}, kPi / 2.0);
  a.boresight = Vec3{0.0, -1.0, 0.0};
  a.polarization_axis = Vec3{0.0, 0.0, 1.0};
  return a;
}

TEST(FrequencyHopping, ChannelsChangeAcrossDwells) {
  ReaderConfig cfg;
  cfg.auto_select_modulation = false;
  cfg.fixed_modulation = Modulation::kFM0;
  cfg.frequency_hopping = true;
  Reader reader(cfg, {hop_antenna()}, channel::MultipathChannel{}, Rng(2));
  em::Tag tag;
  tag.position = Vec3{0.5, 0.25, 0.0};
  tag.dipole_axis = Vec3{0.0, 0.0, 1.0};

  std::set<int> channels;
  for (int i = 0; i < 50; ++i) {
    const auto rep = reader.interrogate(0, tag, i * 0.1);
    ASSERT_TRUE(rep.has_value());
    channels.insert(rep->channel);
  }
  EXPECT_GT(channels.size(), 5u);  // hops across the 5 s span
}

TEST(FrequencyHopping, StableWithinDwell) {
  ReaderConfig cfg;
  cfg.auto_select_modulation = false;
  cfg.fixed_modulation = Modulation::kFM0;
  cfg.frequency_hopping = true;
  Reader reader(cfg, {hop_antenna()}, channel::MultipathChannel{}, Rng(2));
  em::Tag tag;
  tag.position = Vec3{0.5, 0.25, 0.0};
  tag.dipole_axis = Vec3{0.0, 0.0, 1.0};

  const auto r1 = reader.interrogate(0, tag, 0.01);
  const auto r2 = reader.interrogate(0, tag, 0.02);
  ASSERT_TRUE(r1 && r2);
  EXPECT_EQ(r1->channel, r2->channel);
  EXPECT_NEAR(angle_dist(r1->phase_rad, r2->phase_rad), 0.0, 0.3);
}

TEST(FrequencyHopping, PreprocessRestartsAcrossHops) {
  // Two channels with very different offsets: the delta across the hop
  // must not poison the tracker. Build a synthetic stream directly.
  core::PolarDrawConfig cfg;
  TagReportStream reports;
  for (int w = 0; w < 20; ++w) {
    for (int a = 0; a < 2; ++a) {
      TagReport r;
      r.timestamp_s = w * 0.05 + a * 0.01;
      r.antenna_id = a;
      r.rss_dbm = -40.0;
      r.channel = w < 10 ? 3 : 17;       // hop at window 10
      r.phase_rad = wrap_2pi(1.0 + (w < 10 ? 0.0 : 2.5));  // offset jump
      reports.push_back(r);
    }
  }
  core::PolarDraw tracker(cfg, {0.22, 1.25}, {0.78, 1.25}, 0.12);
  const auto result = tracker.track(reports);
  // A 2.5 rad apparent jump would demand ~6.5 cm of phantom motion; with
  // the hop guard the track stays nearly still.
  double travel = 0.0;
  for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
    travel += result.trajectory[i].dist(result.trajectory[i - 1]);
  }
  EXPECT_LT(travel, 0.04);
}

TEST(FrequencyHopping, EndToEndTrackingSurvivesHops) {
  eval::TrialConfig cfg;
  cfg.system = eval::System::kPolarDraw;
  cfg.seed = 91;
  cfg.scene.reader.frequency_hopping = true;
  const auto res = eval::run_trial("O", cfg);
  EXPECT_GT(res.trajectory.size(), 40u);
  EXPECT_LT(res.procrustes_m, 0.20);
}

}  // namespace
}  // namespace polardraw::rfid
