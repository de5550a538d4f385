// Figure 2: recovered trajectory of the strokes "WoW, M, C, W, Z".
//
// The paper's teaser figure shows PolarDraw's recovered pen trail for a
// short word and four letters across a ~100 x 20 cm strip. We regenerate
// the same content: track each item, then print the concatenated ASCII
// rendering and each item's Procrustes distance.
#include "bench_common.h"

#include "recognition/procrustes.h"

using namespace polardraw;

static void run_experiment() {
  bench::banner("Figure 2", "Recovered trajectory: WoW, M, C, W, Z");
  const std::vector<std::string> items{"WOW", "M", "C", "W", "Z"};
  Table t({"Item", "Procrustes (cm)", "Recognized"});
  bench::Stopwatch watch;
  std::vector<eval::TrialSpec> specs;
  for (std::size_t i = 0; i < items.size(); ++i) {
    specs.push_back(
        {items[i], bench::default_trial(eval::System::kPolarDraw, 1000 + i)});
  }
  const auto results = eval::run_trials(specs, bench::n_threads());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto& res = results[i];
    t.add_row({items[i], fmt(res.procrustes_m * 100.0, 1), res.recognized});
    std::vector<std::pair<double, double>> pts;
    for (const auto& p : res.trajectory) pts.emplace_back(p.x, p.y);
    std::cout << "\n--- " << items[i] << " ---\n"
              << ascii_plot(pts, 60, 14) << "\n";
  }
  t.print(std::cout);
  std::cout << "\nPaper reference: Fig. 2 shows legible recovered strokes "
               "across a 100 x 20 cm strip.\n";
  bench::TrialTimes times;
  times.add(results);
  times.report(std::cout, watch.seconds());
  std::cout << "\n";
}

int main() {
  const bench::Session session("fig02");
  run_experiment();
  return session.write_json() ? 0 : 1;
}
