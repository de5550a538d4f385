// Streaming-style consumption of the PolarDraw pipeline.
//
// Shows how an application would sit on top of the library: feed the raw
// LLRP-style tag reports as they arrive (here: chunks of the simulated
// stream), re-run the tracker on the growing prefix, and render the
// evolving trail -- i.e. the "electronic whiteboard" loop. Also prints
// the per-window motion classification so the rotational/translational
// split of section 3.3 is visible.
//
//   $ ./live_tracking [letter]
#include <iostream>
#include <string>

#include "common/table.h"
#include "core/polardraw.h"
#include "handwriting/synthesizer.h"
#include "sim/scene.h"

using namespace polardraw;

int main(int argc, char** argv) {
  const std::string text = argc > 1 ? argv[1] : "S";

  sim::SceneConfig scene_cfg;
  scene_cfg.seed = 99;
  sim::Scene scene(scene_cfg);
  Rng rng(123);
  handwriting::SynthesisConfig synth;
  const auto trace = handwriting::synthesize(text, synth, rng);
  const auto reports = scene.run(trace);

  core::PolarDrawConfig algo;
  algo.gamma_rad = scene_cfg.gamma_rad;
  const auto apos = scene.antenna_board_positions();
  core::PolarDraw tracker(algo, apos[0], apos[1], 0.12);
  const core::PhaseCalibration cal{scene.reader().port_phase_offsets(), {}};

  // Consume the stream in 1-second chunks, as a UI would.
  const double t_end = reports.back().timestamp_s;
  rfid::TagReportStream prefix;
  std::size_t cursor = 0;
  for (double t = 1.0;; t += 1.0) {
    while (cursor < reports.size() && reports[cursor].timestamp_s <= t) {
      prefix.push_back(reports[cursor++]);
    }
    const auto result = tracker.track(prefix, &cal);
    std::cout << "t=" << fmt(std::min(t, t_end), 1) << "s  reads="
              << prefix.size() << "  windows=" << result.trajectory.size()
              << "  (rot " << result.rotational_windows << " / trans "
              << result.translational_windows << " / idle "
              << result.idle_windows << ")\n";
    if (t >= t_end) {
      std::vector<std::pair<double, double>> pts;
      for (const auto& p : result.trajectory) pts.emplace_back(p.x, p.y);
      std::cout << "\nFinal trail:\n" << ascii_plot(pts, 60, 16) << "\n";
      break;
    }
  }
  return 0;
}
