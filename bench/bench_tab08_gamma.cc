// Table 8: recognition accuracy vs the inter-antenna polarization angle.
//
// The two antennas are mounted at +/- gamma from the Z axis. Small gamma
// keeps sector crossings frequent (the correction mechanism fires often);
// large gamma widens sector 2 so crossings rarely happen and accuracy
// falls. The paper: flat at 15/30/45 degrees (90-92%), dropping to 85%
// at 60 and 80% at 75 degrees.
#include "bench_common.h"

#include "common/angles.h"

using namespace polardraw;

static void run_experiment() {
  bench::banner("Table 8", "Accuracy vs inter-antenna angle gamma");
  Table t({"gamma (deg)", "Accuracy (%)", "Paper (%)"});
  const int paper[5] = {92, 90, 91, 85, 80};
  const int sweep[5] = {15, 30, 45, 60, 75};
  const int reps = 2 * bench::reps_scale();
  bench::Stopwatch watch;
  bench::TrialTimes times;
  for (int i = 0; i < 5; ++i) {
    auto cfg = bench::default_trial(eval::System::kPolarDraw,
                                    1200 + static_cast<std::uint64_t>(i));
    cfg.scene.gamma_rad = deg2rad(static_cast<double>(sweep[i]));
    std::vector<eval::TrialResult> results;
    const double acc = eval::letter_accuracy(
        bench::ten_letters(), reps, cfg, nullptr, bench::n_threads(), &results);
    times.add(results);
    t.add_row({std::to_string(sweep[i]), fmt(acc * 100.0, 1),
               std::to_string(paper[i])});
  }
  bench::emit(t, "tab08_gamma");
  std::cout << "\nExpected shape: flat for gamma <= 45 degrees, degrading "
               "beyond as sector crossings become rare.\n";
  times.report(std::cout, watch.seconds());
  std::cout << "\n";
}

int main() {
  const bench::Session session("tab08");
  run_experiment();
  return session.write_json() ? 0 : 1;
}
