// Figure 9: RSS trends reported by the two antennas during writing.
//
// The paper drives the pen through clockwise then counter-clockwise
// azimuthal sweeps (gamma = 30 deg in that figure) and shows the two
// antennas' RSS moving per Table 3: same-sign trends in the outer sectors
// (with the farther antenna changing faster) and opposite-sign trends in
// the middle sector. We script the same sweep and print the per-window
// trends plus a Table 3 consistency score.
#include "bench_common.h"

#include "common/angles.h"
#include "core/preprocess.h"
#include "core/rotation_tracker.h"
#include "sim/scene.h"

using namespace polardraw;

namespace {

struct SweepResult {
  int windows = 0;
  int consistent = 0;
};

SweepResult run_sweep(bool print) {
  sim::SceneConfig scene_cfg;
  scene_cfg.gamma_rad = deg2rad(30.0);  // the figure's setting
  scene_cfg.seed = 5;
  sim::Scene scene(scene_cfg);

  // Scripted azimuth sweep: 150 -> 30 deg (clockwise) then back, pen
  // stationary so rotation dominates RSS entirely.
  handwriting::WritingTrace trace;
  const double duration = 6.0;
  for (int i = 0; i <= 1200; ++i) {
    const double t = i * 0.005;
    const double cycle = std::fmod(t, duration);
    const double az = cycle < duration / 2.0
                          ? 150.0 - 40.0 * cycle
                          : 30.0 + 40.0 * (cycle - duration / 2.0);
    handwriting::TraceSample s;
    s.t_s = t;
    s.pen_tip = Vec3{0.5, 0.25, 0.0};
    s.angles = em::PenAngles{deg2rad(30.0), deg2rad(az)};
    s.tag_pos = s.pen_tip + em::pen_axis(s.angles) * 0.03;
    trace.samples.push_back(s);
  }
  trace.duration_s = trace.samples.back().t_s;

  const auto reports = scene.run(trace);
  core::PolarDrawConfig cfg;
  cfg.gamma_rad = scene_cfg.gamma_rad;
  const core::PhaseCalibration cal{scene.reader().port_phase_offsets(), {}};
  const auto windows = core::preprocess(reports, cfg, &cal);

  core::RotationTracker tracker(cfg);
  SweepResult out;
  Table t({"t (s)", "rss1 (dBm)", "rss2 (dBm)", "ds1", "ds2", "decoded"});
  double prev[2] = {0, 0};
  bool have = false;
  for (const auto& w : windows) {
    if (!w.both_rss_valid()) continue;
    if (have) {
      const double ds1 = w.rss_dbm[0] - prev[0];
      const double ds2 = w.rss_dbm[1] - prev[1];
      const auto est = tracker.step(ds1, ds2);
      const bool cw_true =
          std::fmod(w.t_s, 6.0) < 3.0;  // first half of each cycle
      std::string decoded = "-";
      if (est.type == core::MotionType::kRotational) {
        const bool cw_est = est.sense == core::RotationSense::kClockwise;
        decoded = cw_est ? "cw" : "ccw";
        ++out.windows;
        out.consistent += cw_est == cw_true ? 1 : 0;
      }
      if (print && out.windows % 8 == 1 &&
          est.type == core::MotionType::kRotational) {
        t.add_row(std::vector<std::string>{fmt(w.t_s, 2), fmt(w.rss_dbm[0], 1),
                                           fmt(w.rss_dbm[1], 1), fmt(ds1, 2),
                                           fmt(ds2, 2), decoded});
      }
    }
    prev[0] = w.rss_dbm[0];
    prev[1] = w.rss_dbm[1];
    have = true;
  }
  if (print) {
    t.print(std::cout);
    std::cout << "\nRotation-sense decode consistency: " << out.consistent
              << "/" << out.windows << " windows ("
              << fmt(100.0 * out.consistent / std::max(out.windows, 1), 1)
              << "%)\n"
              << "Paper reference: Fig. 9 shows the same alternating "
                 "same-sign / opposite-sign RSS trends across sectors.\n\n";
  }
  return out;
}

}  // namespace

int main() {
  const bench::Session session("fig09");
  bench::banner("Figure 9", "Two-antenna RSS trends while writing (gamma=30)");
  run_sweep(true);
  return session.write_json() ? 0 : 1;
}
