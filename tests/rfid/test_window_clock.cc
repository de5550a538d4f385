// The window clock's cases, run once against rfid::WindowClock at three
// ports: PolarDraw's two-port pipelines and the baselines' N-port
// windowing all window through it. The clock is pre-processing step 1
// (paper section 3.1) and counts under `preprocess.*`, so its cases keep
// the `Preprocess` suite name they had when preprocess() was their only
// caller.
#include "rfid/window_clock.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "common/angles.h"
#include "obs/metrics.h"

namespace polardraw::rfid {
namespace {

constexpr int kPorts = 3;
constexpr double kWindowS = 0.05;

TagReport report(double t, int ant, double rss_dbm, double phase_rad,
                 int channel = 0) {
  TagReport r;
  r.timestamp_s = t;
  r.antenna_id = ant;
  r.rss_dbm = rss_dbm;
  r.phase_rad = wrap_2pi(phase_rad);
  r.channel = channel;
  return r;
}

/// Every window a three-port clock finishes on `reports`, flush included.
std::vector<ClockWindow> run(const TagReportStream& reports,
                             const PhaseCalibration* calibration = nullptr,
                             double window_s = kWindowS) {
  std::vector<ClockWindow> out;
  WindowClock clock(kPorts, window_s);
  const auto keep = [&out](const ClockWindow& w) { out.push_back(w); };
  for (const TagReport& r : reports) clock.add(r, calibration, keep);
  clock.flush(keep);
  return out;
}

/// The circular mean of `phases` from their running sums.
std::optional<double> circular_mean(const std::vector<double>& phases) {
  double sum_cos = 0.0, sum_sin = 0.0;
  for (const double p : phases) {
    sum_cos += std::cos(p);
    sum_sin += std::sin(p);
  }
  return rfid::circular_mean(sum_cos, sum_sin,
                             static_cast<int>(phases.size()));
}

/// Runs `body` with the metrics registry on and returns its snapshot.
template <class Body>
obs::Snapshot counted(Body&& body) {
  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(true);
  reg.reset();
  body();
  obs::Snapshot snap = reg.snapshot();
  reg.reset();
  reg.set_enabled(false);
  return snap;
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

TEST(Preprocess, EmptyWindowsMarkedInvalid) {
  // A read gap finishes its windows empty on every port.
  TagReportStream reports;
  reports.push_back(report(0.0, 0, -40.0, 1.0));
  reports.push_back(report(0.2, 2, -40.0, 1.0));  // 4 windows later
  const auto windows = run(reports);
  ASSERT_EQ(windows.size(), 5u);
  for (int w = 0; w < 5; ++w) {
    EXPECT_EQ(windows[static_cast<std::size_t>(w)].index, w);
  }
  EXPECT_EQ(windows[0].ports[0].reads, 1);
  for (int w = 1; w < 4; ++w) {
    for (const PortSums& p : windows[static_cast<std::size_t>(w)].ports) {
      EXPECT_EQ(p.reads, 0) << "window " << w;
      EXPECT_FALSE(p.mean_phase_rad().has_value());
    }
  }
  EXPECT_EQ(windows[4].ports[2].reads, 1);
  EXPECT_DOUBLE_EQ(windows[4].t_s, 4.5 * kWindowS);
}

TEST(Preprocess, ReportsBeforeStreamStartAreDropped) {
  // Window 0 starts at the first *placed* read: a read on a port the clock
  // does not have neither lands nor sets it. A read from before window 0,
  // or for a window already finished, is dropped and counted, not
  // bucketed out of range or into a closed window.
  TagReportStream reports;
  reports.push_back(report(0.00, kPorts, -30.0, 0.5));  // foreign port
  reports.push_back(report(1.00, 0, -40.0, 1.0));       // window 0
  reports.push_back(report(0.40, 1, -90.0, 2.5));       // before window 0
  reports.push_back(report(1.01, 2, -50.0, 2.0));
  reports.push_back(report(1.12, 1, -60.0, 2.0));       // window 2
  reports.push_back(report(1.06, 0, -90.0, 2.5));       // window 1, finished
  std::vector<ClockWindow> windows;
  const obs::Snapshot snap = counted([&] { windows = run(reports); });
  EXPECT_EQ(snap.counter("preprocess.late_reports"), 2u);
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_DOUBLE_EQ(windows[0].t_s, 1.0 + 0.5 * kWindowS);
  EXPECT_EQ(windows[0].ports[0].reads, 1);
  EXPECT_EQ(windows[0].ports[0].mean_rss_dbm(), -40.0);  // -90 not mixed
  EXPECT_EQ(windows[0].ports[1].reads, 0);
  EXPECT_EQ(windows[0].ports[2].reads, 1);
  EXPECT_EQ(windows[1].ports[0].reads, 0);  // the late read did not land
  EXPECT_EQ(windows[2].ports[1].reads, 1);
}

TEST(Preprocess, FarFutureTimestampDoesNotExplodeWindowCount) {
  TagReportStream reports;
  for (int a = 0; a < kPorts; ++a) {
    reports.push_back(report(0.01 * a, a, -40.0 - a, 1.0 + a));
  }
  const auto clean = run(reports);
  // A corrupt timestamp ~3 years into the stream: it is dropped and
  // counted instead of finishing one empty window per 50 ms of the span,
  // so the output is that of the stream without it.
  reports.push_back(report(1e8, 1, -60.0, 0.5));
  std::vector<ClockWindow> windows;
  const obs::Snapshot snap = counted([&] { windows = run(reports); });
  EXPECT_EQ(snap.counter("preprocess.far_reports"), 1u);
  ASSERT_EQ(clean.size(), 1u);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].t_s, clean[0].t_s);
  for (int a = 0; a < kPorts; ++a) {
    const PortSums& got = windows[0].ports[static_cast<std::size_t>(a)];
    const PortSums& want = clean[0].ports[static_cast<std::size_t>(a)];
    EXPECT_EQ(got.reads, want.reads);
    EXPECT_EQ(got.rss_sum_dbm, want.rss_sum_dbm);
    EXPECT_EQ(got.cos_sum, want.cos_sum);
    EXPECT_EQ(got.sin_sum, want.sin_sum);
  }
}

TEST(Preprocess, ChainedJumpsStayWithinTheWindowCap) {
  // Each jump lands under kMaxWindows past the current window, so the
  // per-read far rule alone would place both and finish 240,001 windows.
  // A clock capped at kMaxWindows windows from window 0 places the first
  // jump and drops the second as far; the real read after the first jump
  // comes late and is dropped too.
  TagReportStream reports;
  reports.push_back(report(0.00, 0, -40.0, 1.0));
  reports.push_back(report(0.01, 1, -50.0, 2.0));
  reports.push_back(report(6000.01, 2, -60.0, 0.5));   // window 120,000
  reports.push_back(report(0.02, 0, -70.0, 1.5));      // window 0, finished
  reports.push_back(report(12000.01, 0, -60.0, 0.5));  // window 240,000
  std::size_t count = 0;
  ClockWindow first, last;
  const auto keep = [&](const ClockWindow& w) {
    if (count++ == 0) first = w;
    last = w;
  };
  const obs::Snapshot snap = counted([&] {
    WindowClock clock(kPorts, kWindowS, kMaxWindows);
    for (const TagReport& r : reports) clock.add(r, nullptr, keep);
    clock.flush(keep);
  });
  EXPECT_EQ(snap.counter("preprocess.far_reports"), 1u);
  EXPECT_EQ(snap.counter("preprocess.late_reports"), 1u);
  ASSERT_EQ(count, 120001u);
  EXPECT_LE(count, kMaxWindows);
  EXPECT_EQ(first.ports[0].reads, 1);
  EXPECT_EQ(first.ports[0].mean_rss_dbm(), -40.0);
  EXPECT_EQ(last.index, 120000);
  EXPECT_EQ(last.ports[2].reads, 1);
}

TEST(Preprocess, NonPositiveWindowLengthGivesNoWindows) {
  TagReportStream reports;
  reports.push_back(report(0.00, 0, -40.0, 1.0));
  reports.push_back(report(0.01, 1, -50.0, 2.0));
  for (const double window_s :
       {0.0, -0.05, std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(window_s);
    WindowClock clock(kPorts, window_s);
    std::size_t finished = 0;
    const auto count = [&finished](const ClockWindow&) { ++finished; };
    for (const TagReport& r : reports) {
      EXPECT_FALSE(clock.add(r, nullptr, count));
    }
    clock.flush(count);
    EXPECT_EQ(finished, 0u);
  }
}

TEST(Preprocess, CalibrationSubtractsPortOffsets) {
  // Port 2 has no port offset and channel 7 no channel offset: both pass
  // through, and a read on an uncovered channel counts as uncalibrated.
  PhaseCalibration cal;
  cal.port_offsets_rad = {0.5, 0.2};
  cal.channel_offsets_rad = {0.0, 0.3};
  TagReportStream reports;
  reports.push_back(report(0.00, 0, -40.0, 1.5, 1));  // 1.5 - 0.5 - 0.3
  reports.push_back(report(0.01, 1, -40.0, 1.2, 7));  // 1.2 - 0.2
  reports.push_back(report(0.02, 2, -40.0, 1.7, 0));  // 1.7 - 0.0
  const auto windows = run(reports, &cal);
  ASSERT_EQ(windows.size(), 1u);
  const double want[kPorts] = {0.7, 1.0, 1.7};
  const int uncalibrated[kPorts] = {0, 1, 0};
  for (int a = 0; a < kPorts; ++a) {
    const PortSums& p = windows[0].ports[static_cast<std::size_t>(a)];
    ASSERT_TRUE(p.mean_phase_rad().has_value()) << a;
    EXPECT_NEAR(*p.mean_phase_rad(), want[a], 1e-9) << a;
    EXPECT_EQ(p.uncalibrated, uncalibrated[a]) << a;
  }
  // Without a calibration every phase passes through uncalibrated.
  const auto raw = run(reports);
  ASSERT_EQ(raw.size(), 1u);
  EXPECT_NEAR(*raw[0].ports[0].mean_phase_rad(), 1.5, 1e-9);
  EXPECT_EQ(raw[0].ports[0].uncalibrated, 1);
}

TEST(Preprocess, LongStreamBucketsStayOrdinal) {
  // The window clock must agree with the definition: read k at time t
  // lands in window floor((t - t0) / window_s), on its own port.
  TagReportStream reports;
  for (int k = 0; k < 400; ++k) {
    reports.push_back(report(0.013 * k, k % kPorts, -40.0, 1.0));
  }
  const auto windows = run(reports);
  const double span = 0.013 * 399;
  ASSERT_EQ(windows.size(), static_cast<std::size_t>(span / kWindowS) + 1);
  std::vector<int> want(windows.size() * kPorts, 0);
  for (int k = 0; k < 400; ++k) {
    const auto w = static_cast<std::size_t>(0.013 * k / kWindowS);
    ++want[w * kPorts + static_cast<std::size_t>(k % kPorts)];
  }
  for (std::size_t w = 0; w < windows.size(); ++w) {
    EXPECT_EQ(windows[w].index, static_cast<int>(w));
    for (std::size_t a = 0; a < kPorts; ++a) {
      EXPECT_EQ(windows[w].ports[a].reads, want[w * kPorts + a]) << w;
    }
  }
}

TEST(Preprocess, ChannelIsTheLongestSameChannelRun) {
  // The later run wins a tie, so with one hop the channel is the middle
  // read's; A B A is the window where the two rules part.
  const struct {
    std::vector<int> channels;
    int want;
  } cases[] = {{{5, 5, 13, 13}, 13}, {{5, 5, 5, 13}, 5}, {{5, 13, 5}, 5}};
  for (const auto& c : cases) {
    TagReportStream reports;
    for (std::size_t i = 0; i < c.channels.size(); ++i) {
      reports.push_back(report(0.01 * static_cast<double>(i), 1, -40.0, 1.0,
                               c.channels[i]));
    }
    const auto windows = run(reports);
    ASSERT_EQ(windows.size(), 1u);
    EXPECT_EQ(windows[0].ports[1].channel, c.want) << c.channels.size();
  }
}

}  // namespace
}  // namespace polardraw::rfid
