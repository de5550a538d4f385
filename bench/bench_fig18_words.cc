// Figure 18: word recognition accuracy vs word length, three systems.
//
// Ten dictionary words per length group (2-5 letters). The paper finds
// all three systems >91% at two letters, degrading slowly with length;
// two-antenna PolarDraw degrades slightly faster but stays above 75%.
#include "bench_common.h"

using namespace polardraw;

static void run_experiment() {
  bench::banner("Figure 18", "Word recognition accuracy vs word length");
  Table t({"Letters", "PolarDraw-2 (%)", "RF-IDraw-4 (%)", "Tagoram-4 (%)"});
  const int reps = 1 * bench::reps_scale();
  bench::Stopwatch watch;
  bench::TrialTimes times;
  for (std::size_t len = 2; len <= 5; ++len) {
    std::array<double, 3> acc{};
    const eval::System systems[3] = {eval::System::kPolarDraw,
                                     eval::System::kRfIdraw4,
                                     eval::System::kTagoram4};
    for (int s = 0; s < 3; ++s) {
      auto cfg = bench::default_trial(systems[s], 7000 + 997 * len);
      std::vector<eval::TrialResult> results;
      acc[s] = 100.0 * eval::word_accuracy(len, reps, cfg, &results,
                                           bench::n_threads());
      times.add(results);
    }
    bench::record_metric("accuracy_polardraw_len" + std::to_string(len),
                         acc[0] / 100.0);
    t.add_row({std::to_string(len), fmt(acc[0], 1), fmt(acc[1], 1),
               fmt(acc[2], 1)});
  }
  bench::emit(t, "fig18_words");
  std::cout << "\nPaper reference: all >91% at 2 letters; PolarDraw "
               "declines a little faster with length but stays >75%.\n";
  times.report(std::cout, watch.seconds());
  std::cout << "\n";
}

int main() {
  const bench::Session session("fig18");
  run_experiment();
  return session.write_json() ? 0 : 1;
}
