// Quickstart: synthesize one handwritten letter, run the full PolarDraw
// pipeline on the simulated RFID reports, and print the recovered
// trajectory, tracking error, and classification.
//
//   $ ./quickstart [letter]
#include <iostream>
#include <string>

#include "common/table.h"
#include "core/polardraw.h"
#include "handwriting/synthesizer.h"
#include "recognition/classifier.h"
#include "recognition/procrustes.h"
#include "sim/scene.h"

using namespace polardraw;

int main(int argc, char** argv) {
  const char letter = argc > 1 ? argv[1][0] : 'C';

  // 1. Build the scene: two linearly-polarized antennas above a whiteboard.
  sim::SceneConfig scene_cfg;
  scene_cfg.seed = 42;
  sim::Scene scene(scene_cfg);

  // 2. Synthesize a user writing the letter (20 cm tall).
  handwriting::SynthesisConfig synth_cfg;
  Rng rng(7);
  const auto trace = handwriting::synthesize(std::string(1, letter), synth_cfg, rng);
  std::cout << "Synthesized '" << letter << "': " << trace.samples.size()
            << " pen samples over " << trace.duration_s << " s\n";

  // 3. Run the reader: raw (timestamp, antenna, RSS, phase) reports.
  const auto reports = scene.run(trace);
  std::cout << "Reader delivered " << reports.size() << " tag reports using "
            << rfid::to_string(scene.reader().active_modulation()) << "\n";

  // 4. Track with PolarDraw.
  core::PolarDrawConfig cfg;
  cfg.gamma_rad = scene_cfg.gamma_rad;
  const auto apos = scene.antenna_board_positions();
  core::PolarDraw tracker(cfg, apos[0], apos[1],
                          scene.antennas()[0].position.z);
  core::PhaseCalibration cal{scene.reader().port_phase_offsets(), {}};
  const auto result = tracker.track(reports, &cal);
  std::cout << "Tracked " << result.trajectory.size() << " windows ("
            << result.rotational_windows << " rotational, "
            << result.translational_windows << " translational, "
            << result.idle_windows << " idle)\n";

  // 5. Evaluate: Procrustes distance vs ground truth + classification.
  const auto truth = handwriting::flatten_strokes(trace.ground_truth);
  const double err_m =
      recognition::procrustes_distance(truth, result.trajectory);
  std::cout << "Procrustes distance vs ground truth: " << err_m * 100.0
            << " cm\n";

  recognition::LetterClassifier classifier;
  const auto cls = classifier.classify(result.trajectory);
  std::cout << "Classified as '" << cls.letter << "' (score " << cls.score
            << ", runner-up '" << cls.second << "')\n";

  // 6. Show the recovered trajectory.
  std::vector<std::pair<double, double>> pts;
  for (const auto& p : result.trajectory) pts.emplace_back(p.x, p.y);
  std::cout << "\nRecovered trajectory:\n" << ascii_plot(pts) << "\n";
  return 0;
}
