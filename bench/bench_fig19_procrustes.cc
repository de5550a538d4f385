// Figure 19: CDF of the Procrustes distance between ground truth and the
// recovered trajectories, three systems.
//
// Five random letters x 10 repetitions at 20 cm writing size. The paper
// reports 90th-percentile errors of 11.3 cm (Tagoram-4), 10.2 cm
// (RF-IDraw-4) and 13.8 cm (PolarDraw-2): the two-antenna system is
// comparable but slightly behind the four-antenna rigs.
#include "bench_common.h"

using namespace polardraw;

static void run_experiment() {
  bench::banner("Figure 19", "CDF of Procrustes distance, three systems");
  const eval::System systems[3] = {eval::System::kPolarDraw,
                                   eval::System::kRfIdraw4,
                                   eval::System::kTagoram4};
  const char* paper_p90[3] = {"13.8", "10.2", "11.3"};
  const int reps = 4 * bench::reps_scale();

  std::array<std::vector<double>, 3> errors;
  bench::Stopwatch watch;
  bench::TrialTimes times;
  for (int s = 0; s < 3; ++s) {
    // One sweep per system: trial seeds are counter-derived, so the CDF
    // is identical at any thread count.
    std::vector<eval::TrialResult> results;
    eval::letter_accuracy("CMOSU", reps,
                          bench::default_trial(systems[s], 8100 + s), nullptr,
                          bench::n_threads(), &results);
    times.add(results);
    for (const auto& res : results) {
      errors[s].push_back(res.procrustes_m * 100.0);
    }
  }

  Table t({"Percentile", "PolarDraw-2 (cm)", "RF-IDraw-4 (cm)",
           "Tagoram-4 (cm)"});
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0}) {
    t.add_row({fmt(p, 0), fmt(percentile(errors[0], p), 1),
               fmt(percentile(errors[1], p), 1),
               fmt(percentile(errors[2], p), 1)});
  }
  bench::emit(t, "fig19_procrustes");
  std::cout << "\nPaper 90th percentiles: PolarDraw " << paper_p90[0]
            << " cm, RF-IDraw " << paper_p90[1] << " cm, Tagoram "
            << paper_p90[2]
            << " cm (medians ~10 vs ~8 cm). Expected shape: the 2-antenna "
               "system is close behind the 4-antenna rigs.\n";
  times.report(std::cout, watch.seconds());
  std::cout << "\n";
}

int main() {
  const bench::Session session("fig19");
  run_experiment();
  return session.write_json() ? 0 : 1;
}
