// Table 5 + Figure 22: recognition accuracy vs tag-to-reader distance.
//
// The paper sweeps the distance from 20 cm to 140 cm in 20 cm steps:
// accuracy is poor at 20 cm (RSS mixes polarization and range effects),
// rises to a plateau near 1 m and slightly declines beyond (multipath
// alters the apparent polarization angle at range).
#include "bench_common.h"

using namespace polardraw;

static void run_experiment() {
  bench::banner("Table 5 / Figure 22",
                "Recognition accuracy vs tag-to-reader distance");
  Table t({"Distance (cm)", "Accuracy (%)", "Paper (%)"});
  const int paper[7] = {77, 83, 87, 90, 91, 90, 88};
  const int reps = 2 * bench::reps_scale();
  bench::Stopwatch watch;
  bench::TrialTimes times;
  int idx = 0;
  for (int cm = 20; cm <= 140; cm += 20, ++idx) {
    auto cfg = bench::default_trial(eval::System::kPolarDraw,
                                    500 + static_cast<std::uint64_t>(cm));
    cfg.scene.antenna_standoff_m = cm / 100.0;
    std::vector<eval::TrialResult> results;
    const double acc = eval::letter_accuracy(
        bench::ten_letters(), reps, cfg, nullptr, bench::n_threads(), &results);
    times.add(results);
    t.add_row({std::to_string(cm), fmt(acc * 100.0, 1),
               std::to_string(paper[idx])});
  }
  bench::emit(t, "tab05_distance");
  std::cout << "\nExpected shape: low at 20 cm (RSS mixes translation and "
               "rotation), plateau near 80-120 cm, mild decline beyond.\n";
  times.report(std::cout, watch.seconds());
  std::cout << "\n";
}

int main() {
  const bench::Session session("tab05");
  run_experiment();
  return session.write_json() ? 0 : 1;
}
