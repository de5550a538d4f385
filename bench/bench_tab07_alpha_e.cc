// Table 7: recognition accuracy vs the assumed elevation angle alpha_e.
//
// PolarDraw fixes alpha_e to a constant when inverting Eq. 1; the paper
// sweeps the assumption from -45 to +45 degrees and finds accuracy flat
// (90-93%), justifying the simplification. We run the same sweep while
// the true (synthesized) elevation stays at its default ~30 degrees.
#include "bench_common.h"

#include "common/angles.h"

using namespace polardraw;

static void run_experiment() {
  bench::banner("Table 7", "Accuracy vs assumed elevation angle alpha_e");
  Table t({"alpha_e (deg)", "Accuracy (%)", "Paper (%)"});
  const int paper[6] = {91, 91, 92, 91, 93, 90};
  const int sweep[6] = {-45, -30, -15, 15, 30, 45};
  const int reps = 2 * bench::reps_scale();
  bench::Stopwatch watch;
  bench::TrialTimes times;
  for (int i = 0; i < 6; ++i) {
    auto cfg = bench::default_trial(eval::System::kPolarDraw,
                                    1100 + static_cast<std::uint64_t>(i));
    cfg.algo.alpha_e_rad = deg2rad(static_cast<double>(sweep[i]));
    std::vector<eval::TrialResult> results;
    const double acc = eval::letter_accuracy(
        bench::ten_letters(), reps, cfg, nullptr, bench::n_threads(), &results);
    times.add(results);
    t.add_row({std::to_string(sweep[i]), fmt(acc * 100.0, 1),
               std::to_string(paper[i])});
  }
  bench::emit(t, "tab07_alpha_e");
  std::cout << "\nExpected shape: flat across the sweep -- the assumed "
               "elevation barely matters (paper: 90-93% throughout).\n";
  times.report(std::cout, watch.seconds());
  std::cout << "\n";
}

int main() {
  const bench::Session session("tab07");
  run_experiment();
  return session.write_json() ? 0 : 1;
}
