#include "core/preprocess.h"

#include <gtest/gtest.h>

#include "common/angles.h"

namespace polardraw::core {
namespace {

rfid::TagReport report(double t, int ant, double rss_dbm, double phase_rad) {
  rfid::TagReport r;
  r.timestamp_s = t;
  r.antenna_id = ant;
  r.rss_dbm = rss_dbm;
  r.phase_rad = wrap_2pi(phase_rad);
  return r;
}

TEST(Preprocess, WindowsAggregateBothAntennas) {
  PolarDrawConfig cfg;
  rfid::TagReportStream reports;
  // Two antennas, 4 reads per 50 ms window each, 5 windows.
  for (int w = 0; w < 5; ++w) {
    for (int k = 0; k < 4; ++k) {
      const double t = w * 0.05 + k * 0.012;
      reports.push_back(report(t, 0, -40.0 - w, 1.0 + 0.01 * w));
      reports.push_back(report(t + 0.001, 1, -50.0 - w, 2.0 + 0.01 * w));
    }
  }
  const auto windows = preprocess(reports, cfg);
  ASSERT_EQ(windows.size(), 5u);
  for (int w = 0; w < 5; ++w) {
    EXPECT_TRUE(windows[w].both_rss_valid());
    EXPECT_TRUE(windows[w].both_phase_valid());
    EXPECT_NEAR(windows[w].rss_dbm[0], -40.0 - w, 1e-9);
    EXPECT_NEAR(windows[w].rss_dbm[1], -50.0 - w, 1e-9);
    EXPECT_EQ(windows[w].read_count[0], 4);
  }
}

TEST(Preprocess, SpuriousJumpRejected) {
  PolarDrawConfig cfg;
  cfg.spurious_phase_threshold_rad = 0.2;
  rfid::TagReportStream reports;
  // Stable phase, one wild window (a cross-polarized reflection reading),
  // then stable again.
  for (int w = 0; w < 6; ++w) {
    const double phase = w == 3 ? 2.5 : 1.0 + 0.02 * w;
    reports.push_back(report(w * 0.05, 0, -40.0, phase));
    reports.push_back(report(w * 0.05 + 0.01, 1, -40.0, 1.0));
  }
  const auto windows = preprocess(reports, cfg);
  ASSERT_EQ(windows.size(), 6u);
  EXPECT_TRUE(windows[2].phase_valid[0]);
  EXPECT_FALSE(windows[3].phase_valid[0]);  // rejected
  EXPECT_TRUE(windows[4].phase_valid[0]);   // recovered (gap-scaled)
  // RSS is never rejected by the phase filter.
  EXPECT_TRUE(windows[3].rss_valid[0]);
}

TEST(Preprocess, GapScalingAvoidsCascade) {
  PolarDrawConfig cfg;
  cfg.spurious_phase_threshold_rad = 0.2;
  rfid::TagReportStream reports;
  // Phase slews 0.15 rad/window; a 3-window read gap accumulates 0.45 rad
  // of legitimate change, which must NOT be rejected.
  int w = 0;
  auto add = [&](int window) {
    reports.push_back(report(window * 0.05, 0, -40.0, 1.0 + 0.15 * window));
  };
  for (w = 0; w < 3; ++w) add(w);
  for (w = 6; w < 9; ++w) add(w);  // gap of 3 windows
  const auto windows = preprocess(reports, cfg);
  ASSERT_GE(windows.size(), 9u);
  EXPECT_TRUE(windows[6].phase_valid[0]);
  EXPECT_TRUE(windows[7].phase_valid[0]);
}

TEST(Preprocess, UnwrapsAcrossWindows) {
  PolarDrawConfig cfg;
  cfg.spurious_phase_threshold_rad = 0.5;
  rfid::TagReportStream reports;
  // Steady slew of 0.4 rad per window wraps after ~16 windows; the
  // unwrapped series must keep increasing.
  for (int w = 0; w < 30; ++w) {
    reports.push_back(report(w * 0.05, 0, -40.0, 0.4 * w));
  }
  const auto windows = preprocess(reports, cfg);
  double prev = -1e9;
  for (const auto& win : windows) {
    if (!win.phase_valid[0]) continue;
    EXPECT_GT(win.phase_rad[0], prev);
    prev = win.phase_rad[0];
  }
  EXPECT_GT(prev, 10.0);  // far beyond one wrap
}

rfid::TagReport channel_report(double t, int ant, double phase_rad,
                               int channel) {
  rfid::TagReport r = report(t, ant, -40.0, phase_rad);
  r.channel = channel;
  return r;
}

TEST(PreprocessHop, UncalibratedHopFencesInsteadOfStraddling) {
  // An uncalibrated channel hop re-bases the phase by an arbitrary
  // RF-chain offset. The comparison must NEVER straddle the hop: the
  // post-hop window is not judged against the pre-hop reference (which
  // would reject it as spurious here -- the offset far exceeds the
  // threshold), and the unwrapper restarts instead of folding the offset
  // into the continuous series.
  PolarDrawConfig cfg;
  cfg.spurious_phase_threshold_rad = 0.2;
  const double kOffset = 2.1;  // phase re-base at the hop, >> threshold
  rfid::TagReportStream reports;
  for (int w = 0; w < 8; ++w) {
    const bool hopped = w >= 4;
    const double phase = 1.0 + 0.02 * w + (hopped ? kOffset : 0.0);
    reports.push_back(channel_report(w * 0.05, 0, phase, hopped ? 13 : 5));
  }
  const auto windows = preprocess(reports, cfg);
  ASSERT_EQ(windows.size(), 8u);
  for (int w = 0; w < 8; ++w) {
    // Every window keeps its phase: the hop fences the comparison, it
    // does not reject samples.
    EXPECT_TRUE(windows[static_cast<std::size_t>(w)].phase_valid[0])
        << "window " << w;
    // No channel calibration was supplied, so no window may claim it.
    EXPECT_FALSE(windows[static_cast<std::size_t>(w)].channel_calibrated[0]);
  }
  // The unwrapper restarted at the hop: window 4's unwrapped value is its
  // own wrapped phase (a fresh series), not pre-hop phase + jump.
  EXPECT_NEAR(windows[4].phase_rad[0], wrap_2pi(1.08 + kOffset), 1e-9);
  // Within each channel the series stays continuous.
  EXPECT_NEAR(windows[3].phase_rad[0] - windows[0].phase_rad[0], 0.06, 1e-9);
  EXPECT_NEAR(windows[7].phase_rad[0] - windows[4].phase_rad[0], 0.06, 1e-9);
}

TEST(PreprocessHop, CalibratedHopContinuesTheComparison) {
  // With per-channel calibration covering both channels, the offsets are
  // removed at bucketing time and the unwrapped series runs straight
  // through the hop.
  PolarDrawConfig cfg;
  cfg.spurious_phase_threshold_rad = 0.2;
  PhaseCalibration cal;
  cal.port_offsets_rad = {0.0, 0.0};
  cal.channel_offsets_rad.assign(20, 0.0);
  cal.channel_offsets_rad[5] = 0.7;
  cal.channel_offsets_rad[13] = 2.8;
  rfid::TagReportStream reports;
  for (int w = 0; w < 8; ++w) {
    const bool hopped = w >= 4;
    const int ch = hopped ? 13 : 5;
    // True phase slews 0.05/window; the measurement adds the channel's
    // RF-chain offset.
    const double phase = 1.0 + 0.05 * w + cal.channel_offsets_rad[
                             static_cast<std::size_t>(ch)];
    reports.push_back(channel_report(w * 0.05, 0, phase, ch));
  }
  const auto windows = preprocess(reports, cfg, &cal);
  ASSERT_EQ(windows.size(), 8u);
  for (int w = 0; w < 8; ++w) {
    EXPECT_TRUE(windows[static_cast<std::size_t>(w)].phase_valid[0]);
    EXPECT_TRUE(windows[static_cast<std::size_t>(w)].channel_calibrated[0]);
  }
  // Continuous through the hop: the full slew is 7 x 0.05.
  EXPECT_NEAR(windows[7].phase_rad[0] - windows[0].phase_rad[0], 0.35, 1e-9);
  EXPECT_NEAR(windows[4].phase_rad[0] - windows[3].phase_rad[0], 0.05, 1e-9);
}

TEST(PreprocessHop, CalibratedHopStillRejectsSpuriousJumps) {
  // Once calibrated, the spurious filter DOES straddle the hop -- a wild
  // post-hop reading (beyond the threshold after offset removal) is
  // rejected like any other cross-polarized reflection sample.
  PolarDrawConfig cfg;
  cfg.spurious_phase_threshold_rad = 0.2;
  PhaseCalibration cal;
  cal.channel_offsets_rad.assign(20, 0.0);
  rfid::TagReportStream reports;
  for (int w = 0; w < 6; ++w) {
    const int ch = w >= 3 ? 13 : 5;
    const double phase = w == 3 ? 2.5 : 1.0 + 0.02 * w;  // window 3 wild
    reports.push_back(channel_report(w * 0.05, 0, phase, ch));
  }
  const auto windows = preprocess(reports, cfg, &cal);
  ASSERT_EQ(windows.size(), 6u);
  EXPECT_TRUE(windows[2].phase_valid[0]);
  EXPECT_FALSE(windows[3].phase_valid[0]);  // rejected across the hop
  EXPECT_TRUE(windows[4].phase_valid[0]);   // gap-scaled recovery
}

TEST(PreprocessHop, UncoveredChannelPoisonsWindowCalibration) {
  // A window whose reads mix a covered and an uncovered channel cannot
  // claim channel calibration (one read's RF-chain offset was not
  // removed), so the next hop boundary fences again.
  PolarDrawConfig cfg;
  PhaseCalibration cal;
  cal.channel_offsets_rad.assign(6, 0.0);  // channels 0-5 covered; 13 not
  rfid::TagReportStream reports;
  reports.push_back(channel_report(0.00, 0, 1.0, 5));
  reports.push_back(channel_report(0.01, 0, 1.0, 13));  // uncovered
  reports.push_back(channel_report(0.05, 0, 1.0, 5));
  const auto windows = preprocess(reports, cfg, &cal);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_FALSE(windows[0].channel_calibrated[0]);
  EXPECT_TRUE(windows[1].channel_calibrated[0]);
}

TEST(PreprocessHop, GateMarksOnlyTheWindowItFences) {
  // The motion front end skips a phase delta on PhaseGate's mark alone, so
  // the mark sits on the first window after an uncalibrated hop and
  // nowhere else, and a calibrated hop leaves it unset.
  PolarDrawConfig cfg;
  PhaseCalibration cal;
  cal.channel_offsets_rad.assign(20, 0.0);
  rfid::TagReportStream reports;
  for (int w = 0; w < 8; ++w) {
    reports.push_back(
        channel_report(w * 0.05, 0, 1.0 + 0.02 * w, w >= 4 ? 13 : 5));
  }
  const auto fenced = preprocess(reports, cfg);
  const auto calibrated = preprocess(reports, cfg, &cal);
  ASSERT_EQ(fenced.size(), 8u);
  ASSERT_EQ(calibrated.size(), 8u);
  for (std::size_t w = 0; w < 8; ++w) {
    EXPECT_EQ(fenced[w].hop_fenced[0], w == 4) << w;
    EXPECT_FALSE(calibrated[w].hop_fenced[0]) << w;
  }
}

TEST(Preprocess, IgnoresForeignAntennas) {
  PolarDrawConfig cfg;
  rfid::TagReportStream reports;
  reports.push_back(report(0.0, 0, -40.0, 1.0));
  reports.push_back(report(0.0, 3, -40.0, 1.0));  // not a PolarDraw port
  const auto windows = preprocess(reports, cfg);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_TRUE(windows[0].rss_valid[0]);
  EXPECT_FALSE(windows[0].rss_valid[1]);
}

TEST(Preprocess, EmptyStreamEmptyResult) {
  PolarDrawConfig cfg;
  EXPECT_TRUE(preprocess({}, cfg).empty());
}

}  // namespace
}  // namespace polardraw::core
