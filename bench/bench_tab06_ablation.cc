// Table 6: recognition accuracy with and without polarization.
//
// The paper's headline ablation: removing polarization angle estimation
// drops letter accuracy from 91% to 23% (~4x). We reproduce the strict
// reading (no orientation model at all -- no rotational direction
// estimation, no Eq. 10 correction) and additionally report a charitable
// variant that keeps the phase-trend translational direction decode, to
// show where the information actually lives on this substrate.
#include "bench_common.h"

using namespace polardraw;

static void run_experiment() {
  bench::banner("Table 6", "Gain of using polarization");
  const int reps = 3 * bench::reps_scale();
  Table t({"Algorithm", "Accuracy (%)", "Paper (%)"});
  const struct {
    eval::System system;
    const char* paper;
  } rows[] = {
      {eval::System::kPolarDraw, "91"},
      {eval::System::kPolarDrawNoPol, "23"},
      {eval::System::kPolarDrawNoPolPhaseDir, "-"},
  };
  double full = 0.0, ablated = 0.0;
  bench::Stopwatch watch;
  bench::TrialTimes times;
  for (const auto& row : rows) {
    auto cfg = bench::default_trial(row.system, 600);
    std::vector<eval::TrialResult> results;
    const double acc = eval::letter_accuracy(
        bench::ten_letters(), reps, cfg, nullptr, bench::n_threads(), &results);
    times.add(results);
    if (row.system == eval::System::kPolarDraw) full = acc;
    if (row.system == eval::System::kPolarDrawNoPol) ablated = acc;
    t.add_row({to_string(row.system), fmt(acc * 100.0, 1), row.paper});
  }
  bench::emit(t, "tab06_ablation");
  std::cout << "\nFull / strict-ablated ratio: "
            << fmt(full / std::max(ablated, 1e-6), 1)
            << "x (paper: ~4x). The charitable variant shows how much the "
               "phase-trend fallback recovers on this substrate.\n";
  times.report(std::cout, watch.seconds());
  std::cout << "\n";
}

int main() {
  const bench::Session session("tab06");
  run_experiment();
  return session.write_json() ? 0 : 1;
}
