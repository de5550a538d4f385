// Design ablations (DESIGN.md section 5): quantifies the choices the
// paper makes implicitly -- Viterbi vs greedy decoding, the hyperbola
// emission term, the averaging window, the HMM grid resolution, and the
// vmax displacement bound.
#include "bench_common.h"

#include "common/angles.h"

using namespace polardraw;

namespace {

bench::TrialTimes g_times;

double run_variant(const char* label,
                   const std::function<void(eval::TrialConfig&)>& mutate,
                   Table& t, int reps) {
  auto cfg = bench::default_trial(eval::System::kPolarDraw, 1500);
  mutate(cfg);
  std::vector<eval::TrialResult> results;
  const double acc = eval::letter_accuracy(
      bench::ten_letters(), reps, cfg, nullptr, bench::n_threads(), &results);
  g_times.add(results);
  t.add_row({label, fmt(acc * 100.0, 1)});
  return acc;
}

}  // namespace

static void run_experiment() {
  bench::banner("Design ablations", "DESIGN.md section 5 choices");
  const int reps = 2 * bench::reps_scale();
  bench::Stopwatch watch;
  Table t({"Variant", "Accuracy (%)"});
  run_variant("baseline (paper defaults as calibrated)", [](auto&) {}, t, reps);
  run_variant("greedy argmax instead of Viterbi",
              [](auto& c) { c.algo.use_viterbi = false; }, t, reps);
  run_variant("no hyperbola constraint",
              [](auto& c) { c.algo.use_hyperbola_constraint = false; }, t,
              reps);
  run_variant("paper-literal hyperbola weight (sharpness 1)",
              [](auto& c) { c.algo.hyperbola_sharpness = 1.0; }, t, reps);
  run_variant("25 ms averaging window",
              [](auto& c) { c.algo.window_s = 0.025; }, t, reps);
  run_variant("100 ms averaging window",
              [](auto& c) { c.algo.window_s = 0.100; }, t, reps);
  run_variant("1 cm grid blocks",
              [](auto& c) { c.algo.block_m = 0.010; }, t, reps);
  run_variant("2 mm grid blocks",
              [](auto& c) { c.algo.block_m = 0.002; }, t, reps);
  run_variant("vmax 0.1 m/s",
              [](auto& c) { c.algo.vmax_mps = 0.1; }, t, reps);
  run_variant("vmax 0.4 m/s",
              [](auto& c) { c.algo.vmax_mps = 0.4; }, t, reps);
  run_variant("no spurious-phase rejection",
              [](auto& c) { c.algo.spurious_phase_threshold_rad = 100.0; }, t,
              reps);
  run_variant("strict paper spurious threshold (0.2 rad)",
              [](auto& c) { c.algo.spurious_phase_threshold_rad = 0.2; }, t,
              reps);
  run_variant("no direction smoothing",
              [](auto& c) { c.algo.smooth_directions = false; }, t, reps);
  run_variant("no Table-4 noise floor",
              [](auto& c) { c.algo.min_phase_delta_rad = 1e-4; }, t, reps);
  run_variant("phase-noise margin on the Eq. 5 bound (0.1 rad)",
              [](auto& c) { c.algo.phase_noise_margin_rad = 0.1; }, t, reps);
  run_variant("no tag-offset compensation",
              [](auto& c) { c.algo.tag_offset_m = 0.0; }, t, reps);
  run_variant("FCC frequency hopping enabled (hop-aware preprocessing)",
              [](auto& c) { c.scene.reader.frequency_hopping = true; }, t,
              reps);
  run_variant("no Eq.10 rotation correction",
              [](auto& c) { c.algo.apply_rotation_correction = false; }, t,
              reps);
  bench::emit(t, "ablation_design");
  std::cout << "\nEach row isolates one design choice; the baseline row is "
               "the calibrated default configuration.\n";
  g_times.report(std::cout, watch.seconds());
  std::cout << "\n";
}

int main() {
  const bench::Session session("ablation_design");
  run_experiment();
  return session.write_json() ? 0 : 1;
}
