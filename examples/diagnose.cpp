// Developer diagnostic: per-stage accuracy of the PolarDraw pipeline
// against simulation ground truth. Not part of the paper reproduction;
// useful when tuning the substrate or the tracker.
#include <cmath>
#include <iostream>
#include <iomanip>
#include <string>

#include "common/angles.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/polardraw.h"
#include "handwriting/synthesizer.h"
#include "recognition/procrustes.h"
#include "sim/scene.h"

using namespace polardraw;

int main(int argc, char** argv) {
  const std::string text = argc > 1 ? argv[1] : "C";

  sim::SceneConfig scene_cfg;
  scene_cfg.seed = 42;
  sim::Scene scene(scene_cfg);

  handwriting::SynthesisConfig synth_cfg;
  Rng rng(7);
  const auto trace = handwriting::synthesize(text, synth_cfg, rng);
  const auto reports = scene.run(trace);

  core::PolarDrawConfig cfg;
  cfg.gamma_rad = scene_cfg.gamma_rad;
  const auto apos = scene.antenna_board_positions();
  core::PolarDraw tracker(cfg, apos[0], apos[1],
                          scene.antennas()[0].position.z);
  core::PhaseCalibration cal{scene.reader().port_phase_offsets(), {}};
  const auto result = tracker.track(reports, &cal);

  // Ground-truth velocity at window centers.
  auto truth_pos = [&](double t) {
    return sim::tag_at_time(trace, t).position.xy();
  };

  RunningStats dir_dot_rot, dir_dot_trans, dist_err;
  int rot_sign_ok = 0, rot_total = 0;
  int trans_quad_ok = 0, trans_total = 0;
  int moving_idle = 0, idle_total = 0;

  for (const auto& [t_s, o] : result.diagnostics) {
    const Vec2 v = (truth_pos(t_s + 0.025) - truth_pos(t_s - 0.025)) / 0.05;
    const double speed = v.norm();
    const Vec2 tdir = speed > 1e-4 ? v / speed : Vec2{};
    const double true_step = speed * 0.05;
    const core::MotionType motion = o.direction.type;

    if (motion == core::MotionType::kRotational && speed > 0.01) {
      ++rot_total;
      const double dot = o.direction.direction.dot(tdir);
      dir_dot_rot.push(dot);
      if (o.direction.direction.x * tdir.x > 0) ++rot_sign_ok;
    } else if (motion == core::MotionType::kTranslational && speed > 0.01) {
      ++trans_total;
      const double dot = o.direction.direction.dot(tdir);
      dir_dot_trans.push(dot);
      if (dot > 0.3) ++trans_quad_ok;
    } else if (motion == core::MotionType::kIdle) {
      ++idle_total;
      if (speed > 0.02) ++moving_idle;
    }
    if (o.distance.valid && speed > 1e-3) {
      // How well does the annulus contain the true displacement?
      dist_err.push(true_step >= o.distance.lower_m - 0.002 &&
                            true_step <= o.distance.upper_m + 0.002
                        ? 1.0
                        : 0.0);
    }
  }

  std::cout << "windows=" << result.diagnostics.size()
            << " rot=" << result.rotational_windows
            << " trans=" << result.translational_windows
            << " idle=" << result.idle_windows << "\n";
  std::cout << "rotational: mean dir-dot=" << fmt(dir_dot_rot.mean(), 3)
            << " lr-sign-ok=" << rot_sign_ok << "/" << rot_total << "\n";
  std::cout << "translational: mean dir-dot=" << fmt(dir_dot_trans.mean(), 3)
            << " quad-ok=" << trans_quad_ok << "/" << trans_total << "\n";
  std::cout << "idle-but-moving=" << moving_idle << "/" << idle_total << "\n";
  std::cout << "annulus-contains-truth=" << fmt(dist_err.mean(), 3) << "\n";

  // Preprocessing health: how often do windows carry usable data?
  const auto windows = core::preprocess(reports, cfg, &cal);
  int both_phase = 0, both_rss = 0;
  for (const auto& w : windows) {
    if (w.both_phase_valid()) ++both_phase;
    if (w.both_rss_valid()) ++both_rss;
  }
  std::cout << "windows both-phase-valid=" << both_phase << "/"
            << windows.size() << " both-rss-valid=" << both_rss << "/"
            << windows.size() << "\n";

  const auto truth = handwriting::flatten_strokes(trace.ground_truth);
  std::cout << "procrustes=" << fmt(recognition::procrustes_distance(
                                        truth, result.trajectory) * 100.0, 2)
            << " cm  correction=" << fmt(rad2deg(result.azimuth_correction_rad), 1)
            << " deg\n";

  if (argc > 2 && std::string(argv[2]) == "win") {
    // Raw window signals: RSS deltas and phase validity.
    double prev_rss[2] = {0, 0};
    bool have[2] = {false, false};
    std::cout << "\n  w | ds0    | ds1    | ph0 ph1 | true-speed(cm/s)\n";
    int i = 0;
    for (const auto& w : windows) {
      double ds[2] = {0, 0};
      for (int a = 0; a < 2; ++a) {
        if (w.rss_valid[a] && have[a]) ds[a] = w.rss_dbm[a] - prev_rss[a];
        if (w.rss_valid[a]) { prev_rss[a] = w.rss_dbm[a]; have[a] = true; }
      }
      const Vec2 v =
          (truth_pos(w.t_s + 0.025) - truth_pos(w.t_s - 0.025)) / 0.05;
      std::cout << std::setw(3) << i++ << " | " << fmt(ds[0], 2) << " | "
                << fmt(ds[1], 2) << " |  " << (w.phase_valid[0] ? 'v' : '.')
                << "   " << (w.phase_valid[1] ? 'v' : '.') << "  | "
                << fmt(v.norm() * 100, 1) << "\n";
      if (i > 60) break;
    }
    return 0;
  }

  if (argc > 2 && std::string(argv[2]) == "rot") {
    // Rotation-path detail: tracked vs true azimuth and sense.
    auto true_azimuth = [&](double t) {
      const auto tag = sim::tag_at_time(trace, t);
      return rad2deg(std::atan2(tag.dipole_axis.z, tag.dipole_axis.x));
    };
    std::cout << "\n  t   | true-az | est-az | sector | sense | true-daz\n";
    for (const auto& [t_s, o] : result.diagnostics) {
      const core::DirectionEstimate& d = o.direction;
      if (d.type != core::MotionType::kRotational) continue;
      const double az0 = true_azimuth(t_s - 0.025);
      const double az1 = true_azimuth(t_s + 0.025);
      const char* sense =
          d.sense == core::RotationSense::kClockwise          ? "cw "
          : d.sense == core::RotationSense::kCounterClockwise ? "ccw"
                                                              : "?  ";
      std::cout << fmt(t_s, 2) << " | " << fmt((az0 + az1) / 2, 0) << " | "
                << fmt(rad2deg(d.alpha_a_rad), 0) << " | "
                << static_cast<int>(d.sector) << " | " << sense << " | "
                << fmt(az1 - az0, 1) << "\n";
    }
    return 0;
  }

  if (argc > 2) {  // verbose: decoded steps vs truth
    std::cout << "\n w | type | est-step(cm)      | true-step(cm)     | "
                 "lower..upper (cm)\n";
    // trajectory[i] - trajectory[i - 1] is the step of window i - 1 + skip:
    // the trajectory has lost the warm-up windows the diagnostics keep.
    const std::size_t skip =
        result.diagnostics.size() + 1 - result.trajectory.size();
    for (std::size_t i = 1; i < result.trajectory.size() && i < 60; ++i) {
      const auto& [t_s, o] = result.diagnostics[i - 1 + skip];
      const Vec2 est = result.trajectory[i] - result.trajectory[i - 1];
      const Vec2 tru = truth_pos(t_s + 0.025) - truth_pos(t_s - 0.025);
      const core::MotionType m = o.direction.type;
      const char* ty = m == core::MotionType::kRotational      ? "rot "
                       : m == core::MotionType::kTranslational ? "trn "
                                                               : "idle";
      std::cout << std::setw(3) << i << "| " << ty << " | (" << fmt(est.x * 100, 1)
                << "," << fmt(est.y * 100, 1) << ") | (" << fmt(tru.x * 100, 1)
                << "," << fmt(tru.y * 100, 1) << ") | "
                << fmt(o.distance.lower_m * 100, 2) << ".."
                << fmt(o.distance.upper_m * 100, 2)
                << (o.distance.valid ? "" : " INVALID") << "\n";
    }
  }
  return 0;
}
