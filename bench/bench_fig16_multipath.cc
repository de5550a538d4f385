// Figure 16: impact of a nearby bystander (static and dynamic multipath).
//
// A second person stands (static multipath) or walks (dynamic multipath)
// at 30/60/90 cm from the whiteboard while the user writes. The paper
// finds PolarDraw essentially unaffected at 90 cm and only mildly
// degraded at 30 cm (>=83%).
#include "bench_common.h"

#include "channel/scatterer.h"
#include "core/polardraw.h"
#include "recognition/classifier.h"
#include "sim/scene.h"

using namespace polardraw;

namespace {

double run_with_bystander(double distance_m, bool walking, int reps,
                          std::uint64_t seed) {
  int correct = 0, total = 0;
  for (char c : bench::ten_letters()) {
    for (int r = 0; r < reps; ++r) {
      auto cfg = bench::default_trial(eval::System::kPolarDraw,
                                      seed + 131 * r + c);
      // Inject the bystander through the scene's extra scatterers by
      // running the trial manually (the harness has no hook for this).
      eval::apply_system_layout(cfg);
      cfg.scene.seed = cfg.seed;
      sim::Scene scene(cfg.scene);
      const Vec3 board_center{0.5, 0.25, 0.0};
      scene.add_scatterer(
          walking ? channel::make_bystander_walking(distance_m, board_center)
                  : channel::make_bystander_static(distance_m, board_center));
      Rng rng(cfg.seed * 7919 + 13);
      const auto trace =
          handwriting::synthesize(std::string(1, c), cfg.synth, rng);
      const auto reports = scene.run(trace);
      const core::PhaseCalibration cal{scene.reader().port_phase_offsets(), {}};
      const auto apos = scene.antenna_board_positions();
      core::PolarDraw tracker(cfg.algo, apos[0], apos[1],
                              scene.antennas()[0].position.z);
      const auto traj = tracker.track(reports, &cal).trajectory;
      static const recognition::LetterClassifier classifier;
      ++total;
      correct += classifier.classify(traj).letter == c ? 1 : 0;
    }
  }
  return static_cast<double>(correct) / std::max(total, 1);
}

}  // namespace

static void run_experiment() {
  bench::banner("Figure 16", "Bystander multipath: static vs dynamic");
  Table t({"Bystander distance (cm)", "Static acc (%)", "Dynamic acc (%)"});
  const int reps = 2 * bench::reps_scale();
  for (double cm : {90.0, 60.0, 30.0}) {
    const double s = run_with_bystander(cm / 100.0, false, reps, 3000);
    const double d = run_with_bystander(cm / 100.0, true, reps, 4000);
    t.add_row({fmt(cm, 0), fmt(s * 100.0, 1), fmt(d * 100.0, 1)});
  }
  bench::emit(t, "fig16_multipath");
  std::cout << "\nPaper reference: insensitive at 90 cm; static ~87% and "
               "dynamic ~83% at 30 cm.\n\n";
}

int main() {
  const bench::Session session("fig16");
  run_experiment();
  return session.write_json() ? 0 : 1;
}
