#include <gtest/gtest.h>

#include <limits>

#include "baselines/grid_search.h"
#include "baselines/rfidraw.h"
#include "baselines/tagoram.h"
#include "baselines/windowing.h"
#include "common/angles.h"
#include "core/preprocess.h"
#include "obs/metrics.h"

namespace polardraw::baselines {
namespace {

rfid::TagReport report(double t, int ant, double phase_rad, double rss_dbm = -40.0) {
  rfid::TagReport r;
  r.timestamp_s = t;
  r.antenna_id = ant;
  r.phase_rad = wrap_2pi(phase_rad);
  r.rss_dbm = rss_dbm;
  return r;
}

TEST(Windowing, AggregatesPerPort) {
  rfid::TagReportStream reports;
  for (int w = 0; w < 4; ++w) {
    for (int a = 0; a < 3; ++a) {
      reports.push_back(report(w * 0.05 + a * 0.01, a, 0.5 + 0.1 * w));
    }
  }
  const auto windows = window_reports(reports, 3, 0.05);
  ASSERT_EQ(windows.size(), 4u);
  for (const auto& w : windows) {
    EXPECT_EQ(w.phase_valid, std::vector<bool>(3, true));
    EXPECT_EQ(w.phase_rad.size(), 3u);
  }
}

TEST(Windowing, UnwrapsPerPort) {
  rfid::TagReportStream reports;
  for (int w = 0; w < 40; ++w) {
    reports.push_back(report(w * 0.05, 0, 0.5 * w));
  }
  const auto windows = window_reports(reports, 1, 0.05);
  double prev = -1e9;
  for (const auto& w : windows) {
    EXPECT_GT(w.phase_rad[0], prev);
    prev = w.phase_rad[0];
  }
}

TEST(Windowing, OffsetsSubtracted) {
  rfid::TagReportStream reports{report(0.0, 0, 1.7)};
  rfid::PhaseCalibration calibration;
  calibration.port_offsets_rad = {0.7};
  const auto windows = window_reports(reports, 1, 0.05, &calibration);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_NEAR(wrap_2pi(windows[0].phase_rad[0]), 1.0, 1e-9);
}

TEST(Windowing, MissingPortMarkedInvalid) {
  rfid::TagReportStream reports{report(0.0, 0, 1.0)};
  const auto windows = window_reports(reports, 2, 0.05);
  EXPECT_TRUE(windows[0].phase_valid[0]);
  EXPECT_FALSE(windows[0].phase_valid[1]);
}

TEST(Windowing, DegenerateInputs) {
  EXPECT_TRUE(window_reports({}, 2, 0.05).empty());
  EXPECT_TRUE(window_reports({report(0, 0, 1)}, 0, 0.05).empty());
  EXPECT_TRUE(window_reports({report(0, 0, 1)}, 2, 0.0).empty());
}

/// Four ports, 40 windows, one read per port per window.
rfid::TagReportStream clean_stream() {
  rfid::TagReportStream reports;
  for (int w = 0; w < 40; ++w) {
    for (int a = 0; a < 4; ++a) {
      reports.push_back(report(0.01 + w * 0.05 + a * 0.01, a, 0.3 * w + a,
                               -40.0 - a));
    }
  }
  return reports;
}

void expect_same_windows(const std::vector<MultiWindow>& got,
                         const std::vector<MultiWindow>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t w = 0; w < got.size(); ++w) {
    EXPECT_EQ(got[w].t_s, want[w].t_s) << w;
    EXPECT_EQ(got[w].phase_rad, want[w].phase_rad) << w;
    EXPECT_EQ(got[w].phase_valid, want[w].phase_valid) << w;
  }
}

TEST(Windowing, HostileReadsLeaveTheWindowsUnchanged) {
  // A NaN-timestamp first read (it would set window 0), a read at 1e4 s
  // (200,000 windows past the stream) and a NaN-phase read (it would turn
  // its port's unwrapped phase NaN for good) must each vanish: the stream
  // windows exactly as without them, and each drop is counted.
  const rfid::TagReportStream clean = clean_stream();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  rfid::TagReport nan_time = report(0.0, 0, 1.0);
  nan_time.timestamp_s = nan;
  rfid::TagReport far = report(1e4, 1, 1.0);
  rfid::TagReport nan_phase = report(1.0, 2, 1.0);
  nan_phase.phase_rad = nan;
  const auto with = [&clean](const rfid::TagReport& r, std::size_t at) {
    rfid::TagReportStream s = clean;
    s.insert(s.begin() + static_cast<std::ptrdiff_t>(at), r);
    return s;
  };
  rfid::TagReportStream all = with(nan_phase, 80);
  all.insert(all.begin() + 60, far);
  all.insert(all.begin(), nan_time);
  struct Case {
    const char* name;
    rfid::TagReportStream stream;
    std::uint64_t nonfinite, far;
  };
  const Case cases[] = {{"NaN first timestamp", with(nan_time, 0), 1, 0},
                        {"far timestamp", with(far, 60), 0, 1},
                        {"NaN phase", with(nan_phase, 80), 1, 0},
                        {"all three", all, 2, 1}};

  const auto expected = window_reports(clean, 4, 0.05);
  ASSERT_EQ(expected.size(), 40u);
  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(true);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    reg.reset();
    const auto got = window_reports(c.stream, 4, 0.05);
    const obs::Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("preprocess.nonfinite_reports"), c.nonfinite);
    EXPECT_EQ(snap.counter("preprocess.far_reports"), c.far);
    expect_same_windows(got, expected);
  }
  reg.reset();
  reg.set_enabled(false);
}

TEST(Windowing, OutOfOrderReadIsDroppedAsLate) {
  // A read for window 10 arriving among window 25's reads: its window is
  // finished, so it is dropped and counted instead of being bucketed, and
  // the stream windows exactly as without it.
  const rfid::TagReportStream clean = clean_stream();
  rfid::TagReportStream stream = clean;
  stream.insert(stream.begin() + 101, report(0.52, 1, 9.0, -70.0));
  const auto expected = window_reports(clean, 4, 0.05);
  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(true);
  reg.reset();
  const auto got = window_reports(stream, 4, 0.05);
  EXPECT_EQ(reg.snapshot().counter("preprocess.late_reports"), 1u);
  reg.reset();
  reg.set_enabled(false);
  expect_same_windows(got, expected);
}

TEST(Windowing, AgreesWithPreprocessOnACleanStream) {
  // Both run the one window clock: at two ports, on a stream the phase
  // gate accepts whole, window_reports and preprocess() agree on window
  // times, which ports have a phase and the unwrapped phases.
  rfid::TagReportStream reports;
  for (int w = 0; w < 60; ++w) {
    if (w % 7 == 3) continue;  // a read gap on both ports
    for (int k = 0; k < 1 + w % 3; ++k) {
      const double t = 0.002 + w * 0.05 + k * 0.013;
      reports.push_back(report(t, 0, 0.4 * w + 0.01 * k, -40.0 - 0.1 * w));
      if (w % 5 != 1) {
        reports.push_back(report(t + 0.004, 1, 1.0 + 0.3 * w, -50.0 + k));
      }
    }
  }
  const core::PolarDrawConfig cfg;
  const auto batch = core::preprocess(reports, cfg);
  const auto windows = window_reports(reports, 2, cfg.window_s);
  ASSERT_EQ(windows.size(), batch.size());
  for (std::size_t w = 0; w < windows.size(); ++w) {
    EXPECT_EQ(windows[w].t_s, batch[w].t_s) << w;
    for (std::size_t a = 0; a < 2; ++a) {
      EXPECT_EQ(windows[w].phase_valid[a], batch[w].phase_valid[a]) << w;
      EXPECT_EQ(windows[w].phase_rad[a], batch[w].phase_rad[a]) << w;
    }
  }
}

/// Four circular antennas 1 m off a 0.4 x 0.3 m board, above and below it.
std::vector<em::ReaderAntenna> grid_rig() {
  std::vector<em::ReaderAntenna> rig;
  for (const Vec3 p : {Vec3{0.0, 0.4, 1.0}, Vec3{0.4, 0.4, 1.0},
                       Vec3{0.0, -0.1, 1.0}, Vec3{0.4, -0.1, 1.0}}) {
    rig.push_back(em::make_circular_antenna(p));
  }
  return rig;
}

/// Noise-free per-port phase changes k(L_a(path[t+1]) - L_a(path[t])).
PhaseSteps ideal_steps(const std::vector<em::ReaderAntenna>& rig,
                       const std::vector<Vec2>& path, double lambda) {
  PhaseSteps steps;
  steps.port_weight = 2.0;
  for (std::size_t t = 1; t < path.size(); ++t) {
    std::vector<double>& d = steps.port_deltas.emplace_back();
    for (const em::ReaderAntenna& ant : rig) {
      d.push_back(4.0 * kPi *
                  (link_length(path[t], ant) - link_length(path[t - 1], ant)) /
                  lambda);
    }
  }
  return steps;
}

GridConfig small_grid() {
  GridConfig cfg;
  cfg.board_width_m = 0.4;
  cfg.board_height_m = 0.3;
  cfg.block_m = 0.01;
  return cfg;
}

TEST(GridBeam, FollowsScoreGradient) {
  // A tag moving one block right per window, from block (5, 15): the
  // coherence score peaks on the measured move, and the decode lands on
  // every block of the path.
  const GridConfig cfg = small_grid();
  std::vector<Vec2> path;
  for (int t = 0; t <= 20; ++t) path.push_back({0.055 + 0.01 * t, 0.155});
  const auto rig = grid_rig();
  const auto traj = grid_beam_decode(cfg, path[0], rig,
                                     ideal_steps(rig, path, cfg.wavelength_m));
  ASSERT_EQ(traj.size(), path.size());
  for (std::size_t t = 0; t < path.size(); ++t) {
    EXPECT_LT(traj[t].dist(path[t]), 1e-9) << t;
  }
}

TEST(GridBeam, RespectsSpeedLimit) {
  // The phases say 3 cm per window, three times the speed limit.
  const GridConfig cfg = small_grid();
  std::vector<Vec2> path;
  for (int t = 0; t <= 10; ++t) path.push_back({0.055 + 0.03 * t, 0.155});
  const auto rig = grid_rig();
  const auto traj = grid_beam_decode(cfg, path[0], rig,
                                     ideal_steps(rig, path, cfg.wavelength_m));
  ASSERT_EQ(traj.size(), path.size());
  const double max_step = cfg.vmax_mps * cfg.window_s + cfg.block_m;
  for (std::size_t i = 1; i < traj.size(); ++i) {
    EXPECT_LE(traj[i].dist(traj[i - 1]), max_step);
  }
}

TEST(GridBeam, ZeroStepsJustStart) {
  const GridConfig cfg;
  const auto traj =
      grid_beam_decode(cfg, {0.2, 0.2}, grid_rig(), PhaseSteps{});
  ASSERT_EQ(traj.size(), 1u);
  EXPECT_NEAR(traj[0].x, 0.2, cfg.block_m);
}

/// Synthesizes ideal (noise-free) phase reports for a tag gliding right,
/// observed by `antennas`, and checks the tracker recovers the motion.
template <typename MakeTracker>
void run_synthetic_track(int ports, MakeTracker make_tracker) {
  std::vector<em::ReaderAntenna> rig;
  for (int a = 0; a < ports; ++a) {
    // Two ports: a well-conditioned pair above the block. More ports:
    // alternate above/below for 2-D diversity.
    const double y = ports <= 2 ? 0.55 : (a % 2 == 0 ? 0.55 : -0.05);
    em::ReaderAntenna ant = em::make_circular_antenna(
        Vec3{0.2 + 0.6 * a / std::max(1, ports - 1), y, 1.0});
    ant.boresight = Vec3{0.0, 0.0, -1.0};
    rig.push_back(ant);
  }
  const double lambda = GridConfig{}.wavelength_m;
  rfid::TagReportStream reports;
  // Tag glides right 20 cm over 2 s; reads at 100 Hz round-robin. The
  // glide must cover at least a grid block per window or per-window
  // differential trackers legitimately prefer standing still.
  for (int i = 0; i < 200; ++i) {
    const double t = i * 0.01;
    const Vec2 tag{0.30 + 0.10 * t, 0.25};
    const int port = i % ports;
    const auto& ant = rig[static_cast<std::size_t>(port)];
    const double dx = tag.x - ant.position.x;
    const double dy = tag.y - ant.position.y;
    const double l = std::sqrt(dx * dx + dy * dy + ant.position.z * ant.position.z);
    reports.push_back(report(t, port, 4.0 * kPi * l / lambda));
  }
  const auto traj = make_tracker(rig)(reports);
  ASSERT_GT(traj.size(), 10u);
  const double dx = traj.back().x - traj.front().x;
  const double dy = traj.back().y - traj.front().y;
  EXPECT_NEAR(dx, 0.20, 0.06);
  EXPECT_NEAR(dy, 0.0, 0.08);
}

TEST(Tagoram, TracksGlidingTagFourAntennas) {
  run_synthetic_track(4, [](const std::vector<em::ReaderAntenna>& rig) {
    return [rig](const rfid::TagReportStream& reports) {
      TagoramTracker tracker(GridConfig{}, rig);
      return tracker.track(reports);
    };
  });
}

TEST(Tagoram, TwoAntennasRecoverHorizontalMotion) {
  // With two antennas in a horizontal line, the differential phases pin
  // lateral motion well but leave the vertical component ill-conditioned
  // when tracking starts from a wrong absolute anchor -- the 2-antenna
  // weakness the paper's cost comparison trades against. Assert only the
  // well-conditioned axis.
  std::vector<em::ReaderAntenna> rig;
  for (int a = 0; a < 2; ++a) {
    em::ReaderAntenna ant =
        em::make_circular_antenna(Vec3{0.2 + 0.6 * a, 0.55, 1.0});
    ant.boresight = Vec3{0.0, 0.0, -1.0};
    rig.push_back(ant);
  }
  const double lambda = GridConfig{}.wavelength_m;
  rfid::TagReportStream reports;
  for (int i = 0; i < 200; ++i) {
    const double t = i * 0.01;
    const Vec2 tag{0.30 + 0.10 * t, 0.25};
    const int port = i % 2;
    const auto& ant = rig[static_cast<std::size_t>(port)];
    const double dx = tag.x - ant.position.x;
    const double dy = tag.y - ant.position.y;
    const double l =
        std::sqrt(dx * dx + dy * dy + ant.position.z * ant.position.z);
    reports.push_back(report(t, port, 4.0 * kPi * l / lambda));
  }
  TagoramTracker tracker(GridConfig{}, rig);
  const auto traj = tracker.track(reports);
  ASSERT_GT(traj.size(), 10u);
  EXPECT_NEAR(traj.back().x - traj.front().x, 0.20, 0.07);
}

TEST(Tagoram, EmptyStreamEmptyTrajectory) {
  TagoramTracker tracker(GridConfig{},
                         {em::make_circular_antenna(Vec3{0, 0, 1})});
  EXPECT_TRUE(tracker.track({}).empty());
}

TEST(RfIdraw, TracksGlidingTag) {
  run_synthetic_track(4, [](const std::vector<em::ReaderAntenna>& rig) {
    return [rig](const rfid::TagReportStream& reports) {
      RfIdrawTracker tracker(GridConfig{}, rig, {{0, 1}, {2, 3}},
                             std::vector<double>(4, 0.0));
      return tracker.track(reports);
    };
  });
}

TEST(RfIdraw, EmptyStreamEmptyTrajectory) {
  RfIdrawTracker tracker(GridConfig{},
                         {em::make_circular_antenna(Vec3{0, 0, 1}),
                          em::make_circular_antenna(Vec3{0.2, 0, 1})},
                         {{0, 1}}, {0.0, 0.0});
  EXPECT_TRUE(tracker.track({}).empty());
}

}  // namespace
}  // namespace polardraw::baselines
