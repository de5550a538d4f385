#include "core/preprocess.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/angles.h"
#include "obs/metrics.h"

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

TEST(CircularMean, SimpleAverage) {
  const auto m = circular_mean({0.1, 0.3});
  ASSERT_TRUE(m.has_value());
  EXPECT_NEAR(*m, 0.2, 1e-9);
}

TEST(CircularMean, HandlesWrap) {
  // 0.1 and 2*pi - 0.1 average to 0, not pi.
  const auto m = circular_mean({0.1, kTwoPi - 0.1});
  ASSERT_TRUE(m.has_value());
  EXPECT_NEAR(*m, 0.0, 1e-9);
}

TEST(CircularMean, EmptyIsNullopt) {
  EXPECT_FALSE(circular_mean({}).has_value());
}

TEST(CircularMean, NearCancellationIsNullopt) {
  // Antipodal pairs cancel exactly in real arithmetic but leave a
  // resultant of rounding-noise magnitude in floating point; the mean
  // direction of that noise is meaningless and must be rejected rather
  // than returned as if it carried information.
  EXPECT_FALSE(circular_mean({0.3, 0.3 + kPi}).has_value());
  // Uniformly spread phases (4 points a quarter-turn apart).
  EXPECT_FALSE(
      circular_mean({0.1, 0.1 + kPi / 2, 0.1 + kPi, 0.1 + 3 * kPi / 2})
          .has_value());
  // Many near-uniform samples: per-term rounding error grows with n, and
  // so must the rejection threshold.
  std::vector<double> uniform;
  for (int i = 0; i < 1000; ++i) uniform.push_back(kTwoPi * i / 1000.0);
  EXPECT_FALSE(circular_mean(uniform).has_value());
}

TEST(CircularMean, TightClusterSurvivesTheNoiseFloor) {
  // A genuinely concentrated set must not be swallowed by the epsilon.
  const auto m = circular_mean({1.0, 1.0, 1.0, 1.0});
  ASSERT_TRUE(m.has_value());
  EXPECT_NEAR(*m, 1.0, 1e-12);
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

TEST(Preprocess, EmptyWindowsMarkedInvalid) {
  PolarDrawConfig cfg;
  rfid::TagReportStream reports;
  reports.push_back(report(0.0, 0, -40.0, 1.0));
  reports.push_back(report(0.2, 0, -40.0, 1.0));  // 4 windows later
  const auto windows = preprocess(reports, cfg);
  ASSERT_EQ(windows.size(), 5u);
  EXPECT_TRUE(windows[0].rss_valid[0]);
  EXPECT_FALSE(windows[1].rss_valid[0]);
  EXPECT_FALSE(windows[2].both_rss_valid());
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

TEST(Preprocess, CalibrationSubtractsPortOffsets) {
  PolarDrawConfig cfg;
  rfid::TagReportStream reports;
  for (int w = 0; w < 3; ++w) {
    reports.push_back(report(w * 0.05, 0, -40.0, 1.5));
  }
  PhaseCalibration cal{{0.5, 0.0}, {}};
  const auto windows = preprocess(reports, cfg, &cal);
  EXPECT_NEAR(wrap_2pi(windows[0].phase_rad[0]), 1.0, 1e-9);
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

TEST(Preprocess, ReportsBeforeStreamStartAreDropped) {
  PolarDrawConfig cfg;
  rfid::TagReportStream reports;
  // A read that predates window 0 would index a negative window ordinal;
  // it must be dropped and counted, not bucketed out of range.
  reports.push_back(report(1.00, 0, -40.0, 1.0));
  reports.push_back(report(0.40, 0, -90.0, 2.5));  // before t0
  reports.push_back(report(1.01, 1, -50.0, 2.0));
  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(true);
  reg.reset();
  const auto windows = preprocess(reports, cfg);
  EXPECT_EQ(reg.snapshot().counter("preprocess.late_reports"), 1u);
  reg.reset();
  reg.set_enabled(false);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_TRUE(windows[0].both_rss_valid());
  EXPECT_NEAR(windows[0].rss_dbm[0], -40.0, 1e-9);  // -90 dropped, not mixed
}

TEST(Preprocess, FarFutureTimestampDoesNotExplodeWindowCount) {
  PolarDrawConfig cfg;
  rfid::TagReportStream reports;
  reports.push_back(report(0.00, 0, -40.0, 1.0));
  reports.push_back(report(0.01, 1, -50.0, 2.0));
  const auto clean = preprocess(reports, cfg);
  // A corrupt timestamp ~3 years into the stream: it is dropped and
  // counted instead of finishing one empty window per 50 ms of the span,
  // so the output is that of the stream without it.
  reports.push_back(report(1e8, 0, -60.0, 0.5));
  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(true);
  reg.reset();
  const auto windows = preprocess(reports, cfg);
  EXPECT_EQ(reg.snapshot().counter("preprocess.far_reports"), 1u);
  reg.reset();
  reg.set_enabled(false);
  ASSERT_EQ(clean.size(), 1u);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_TRUE(windows[0].both_rss_valid());
  EXPECT_EQ(windows[0].t_s, clean[0].t_s);
  for (int a = 0; a < 2; ++a) {
    EXPECT_EQ(windows[0].read_count[a], clean[0].read_count[a]);
    EXPECT_EQ(windows[0].rss_dbm[a], clean[0].rss_dbm[a]);
    EXPECT_EQ(windows[0].phase_rad[a], clean[0].phase_rad[a]);
  }
}

TEST(Preprocess, ChainedJumpsStayWithinTheWindowCap) {
  // Each jump lands under kMaxWindows past the current window, so the
  // per-read far rule alone would place both and finish 240,001 windows.
  // The output is capped at kMaxWindows windows from window 0: the first
  // jump is placed, the second is dropped as far, and the real read
  // after the first jump comes late and is dropped too.
  PolarDrawConfig cfg;
  rfid::TagReportStream reports;
  reports.push_back(report(0.00, 0, -40.0, 1.0));
  reports.push_back(report(0.01, 1, -50.0, 2.0));
  reports.push_back(report(6000.01, 0, -60.0, 0.5));   // window 120,000
  reports.push_back(report(0.02, 0, -70.0, 1.5));      // window 0, finished
  reports.push_back(report(12000.01, 0, -60.0, 0.5));  // window 240,000
  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(true);
  reg.reset();
  const auto windows = preprocess(reports, cfg);
  const auto snap = reg.snapshot();
  reg.reset();
  reg.set_enabled(false);
  EXPECT_EQ(snap.counter("preprocess.far_reports"), 1u);
  EXPECT_EQ(snap.counter("preprocess.late_reports"), 1u);
  ASSERT_EQ(windows.size(), 120001u);
  EXPECT_LE(windows.size(), rfid::kMaxWindows);
  EXPECT_EQ(windows[0].read_count[0], 1);
  EXPECT_EQ(windows[0].rss_dbm[0], -40.0);
  EXPECT_EQ(windows.back().index, 120000);
  EXPECT_EQ(windows.back().read_count[0], 1);
}

TEST(Preprocess, NonPositiveWindowLengthGivesNoWindows) {
  rfid::TagReportStream reports;
  reports.push_back(report(0.00, 0, -40.0, 1.0));
  reports.push_back(report(0.01, 1, -50.0, 2.0));
  for (const double window_s :
       {0.0, -0.05, std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(window_s);
    PolarDrawConfig cfg;
    cfg.window_s = window_s;
    EXPECT_TRUE(preprocess(reports, cfg).empty());
  }
}

TEST(Preprocess, LongStreamBucketsStayOrdinal) {
  // The window clock must agree with the definition: read k at time t
  // lands in window floor((t - t0) / window_s).
  PolarDrawConfig cfg;
  rfid::TagReportStream reports;
  for (int k = 0; k < 400; ++k) {
    reports.push_back(report(0.013 * k, 0, -40.0, 1.0));
  }
  const auto windows = preprocess(reports, cfg);
  const double span = 0.013 * 399;
  ASSERT_EQ(windows.size(), static_cast<std::size_t>(span / cfg.window_s) + 1);
  int reads = 0;
  for (const auto& w : windows) {
    EXPECT_EQ(w.index, &w - windows.data());
    reads += w.read_count[0];
  }
  EXPECT_EQ(reads, 400);
}

}  // namespace
}  // namespace polardraw::core
