// Figure 15: writing in the air vs on the whiteboard.
//
// Four groups, each with 10 random letters written 10 times, once on the
// board and once in the air. Without the board the writing leaves the
// 2-D plane, degrading the distance inference: the paper reports ~91% on
// the board dropping about 8 points in the air (still above 80%).
#include "bench_common.h"

using namespace polardraw;

static void run_experiment() {
  bench::banner("Figure 15", "Writing in air vs on the whiteboard");
  const std::array<std::string, 4> groups{
      "ACELMOSUWZ", "BDFGHJKNPQ", "IRTVXYAEMS", "CLOUWZBGKT"};
  Table t({"Group", "Board acc (%)", "In-air acc (%)", "Delta (pts)"});
  const int reps = 2 * bench::reps_scale();
  RunningStats board_all, air_all;
  bench::Stopwatch watch;
  bench::TrialTimes times;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    auto board_cfg = bench::default_trial(eval::System::kPolarDraw,
                                          2000 + 31 * g);
    board_cfg.synth.in_air = false;
    auto air_cfg = board_cfg;
    air_cfg.synth.in_air = true;
    std::vector<eval::TrialResult> results;
    const double board = eval::letter_accuracy(
        groups[g], reps, board_cfg, nullptr, bench::n_threads(), &results);
    times.add(results);
    const double air = eval::letter_accuracy(
        groups[g], reps, air_cfg, nullptr, bench::n_threads(), &results);
    times.add(results);
    board_all.push(board);
    air_all.push(air);
    t.add_row({std::to_string(g + 1), fmt(board * 100.0, 1),
               fmt(air * 100.0, 1), fmt((board - air) * 100.0, 1)});
  }
  const double elapsed = watch.seconds();
  bench::emit(t, "fig15_air");
  std::cout << "\nMeans: board " << fmt(board_all.mean() * 100.0, 1)
            << "%, air " << fmt(air_all.mean() * 100.0, 1)
            << "% (paper: ~91% board, ~8 points lower in air, air >80%).\n";
  times.report(std::cout, elapsed);
  std::cout << "\n";
}

int main() {
  const bench::Session session("fig15");
  run_experiment();
  return session.write_json() ? 0 : 1;
}
