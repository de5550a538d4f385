// Sensor-augmented tag (the paper's section 7 WISP proposal): a simulated
// accelerometer on the pen detects when the tip touches the whiteboard,
// letting the application drop pen-up transit segments from the recovered
// trail -- cleaner multi-stroke letters without any RF change.
//
//   $ ./wisp_touch [letter]
#include <iostream>
#include <string>

#include "common/table.h"
#include "core/polardraw.h"
#include "handwriting/synthesizer.h"
#include "recognition/classifier.h"
#include "rfid/wisp.h"
#include "sim/scene.h"

using namespace polardraw;

int main(int argc, char** argv) {
  const std::string letter = argc > 1 ? argv[1] : "H";

  sim::SceneConfig scene_cfg;
  scene_cfg.seed = 5;
  sim::Scene scene(scene_cfg);
  Rng rng(11);
  handwriting::SynthesisConfig synth;
  const auto trace = handwriting::synthesize(letter, synth, rng);
  const auto reports = scene.run(trace);

  // RF trajectory, as usual.
  core::PolarDrawConfig algo;
  algo.gamma_rad = scene_cfg.gamma_rad;
  const auto apos = scene.antenna_board_positions();
  core::PolarDraw tracker(algo, apos[0], apos[1],
                          scene.antennas()[0].position.z);
  const core::PhaseCalibration cal{scene.reader().port_phase_offsets(), {}};
  const auto result = tracker.track(reports, &cal);

  // WISP accelerometer stream + touch detection, windowed like the tracker.
  rfid::WispConfig wcfg;
  Rng wisp_rng(12);
  const auto accel = rfid::simulate_wisp(trace, wcfg, wisp_rng);
  const auto touch = rfid::detect_touch(accel, algo.window_s);

  // Drop pen-up windows from the trail (offset by the tracker's warmup trim).
  std::vector<Vec2> ink_only;
  for (std::size_t i = 0; i < result.trajectory.size(); ++i) {
    const std::size_t w = i + static_cast<std::size_t>(algo.warmup_windows);
    if (w < touch.size() && !touch[w]) continue;
    ink_only.push_back(result.trajectory[i]);
  }

  int touch_windows = 0;
  for (bool b : touch) touch_windows += b ? 1 : 0;
  std::cout << "Touch detector: " << touch_windows << "/" << touch.size()
            << " windows classified pen-down\n";

  const recognition::LetterClassifier classifier;
  auto show = [&](const char* label, const std::vector<Vec2>& traj) {
    std::vector<std::pair<double, double>> pts;
    for (const auto& p : traj) pts.emplace_back(p.x, p.y);
    std::cout << "\n--- " << label << " (recognized '"
              << classifier.classify(traj).letter << "') ---\n"
              << ascii_plot(pts, 52, 14);
  };
  show("full RF trail (transits included)", result.trajectory);
  show("WISP-gated trail (pen-down only)", ink_only);
  std::cout << "\nThe paper proposes exactly this: a sensor tag 'to detect "
               "whether the pen is touching the whiteboard or not'.\n";
  return 0;
}
