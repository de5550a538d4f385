// Figure 13: per-letter recognition accuracy over the alphabet.
//
// The paper has a volunteer write each of the 26 letters 100 times and
// reports 93.6% mean accuracy, with 15/26 letters above 90% and all
// letters above 80%. We run the same protocol at reduced repetitions
// (PD_BENCH_REPS scales it up) and print the per-letter rates.
#include "bench_common.h"

#include "recognition/classifier.h"

using namespace polardraw;

static void run_experiment() {
  bench::banner("Figure 13", "Letter recognition accuracy (A-Z)");
  const int reps = 4 * bench::reps_scale();
  auto cfg = bench::default_trial(eval::System::kPolarDraw, 777);
  recognition::ConfusionMatrix cm;
  bench::Stopwatch watch;
  std::vector<eval::TrialResult> results;
  const double overall = eval::letter_accuracy(
      "ABCDEFGHIJKLMNOPQRSTUVWXYZ", reps, cfg, &cm, bench::n_threads(),
      &results);
  const double elapsed = watch.seconds();
  bench::record_metric("accuracy", overall);
  bench::TrialTimes times;
  times.add(results);

  Table t({"Letter", "Accuracy (%)", "Top confusion"});
  int above90 = 0, above85 = 0, above80 = 0;
  for (char c : handwriting::alphabet()) {
    const double acc = cm.accuracy(c) * 100.0;
    above90 += acc >= 90.0 ? 1 : 0;
    above85 += acc >= 85.0 ? 1 : 0;
    above80 += acc >= 80.0 ? 1 : 0;
    std::string conf = "-";
    if (const auto top = cm.top_confusion(c)) conf = std::string(1, *top);
    t.add_row({std::string(1, c), fmt(acc, 0), conf});
  }
  bench::emit(t, "fig13_letters");
  std::cout << "\nOverall accuracy: " << fmt(overall * 100.0, 1) << "% over "
            << cm.total() << " trials (paper: 93.6%).\n"
            << "Letters >=90%: " << above90 << "/26 (paper: 15), >=85%: "
            << above85 << "/26 (paper: 21), >=80%: " << above80
            << "/26 (paper: 26).\n";
  times.report(std::cout, elapsed);
  std::cout << "\n";
}

int main() {
  const bench::Session session("fig13");
  run_experiment();
  return session.write_json() ? 0 : 1;
}
