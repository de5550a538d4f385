// Figure 20: qualitative gallery of recovered trajectories.
//
// One letter traced by all three systems next to the ground truth. The
// paper notes the recoveries are stretched/rotated versions of the truth
// (especially at the stroke ends) but all preserve the letter's profile.
#include "bench_common.h"

#include "recognition/procrustes.h"

using namespace polardraw;

static void run_experiment() {
  bench::banner("Figure 20", "Recovered trajectories, one letter per system");
  const char letter = 'B';
  const std::uint64_t seed = 4242;

  auto plot = [](const std::vector<Vec2>& pts) {
    std::vector<std::pair<double, double>> xy;
    for (const auto& p : pts) xy.emplace_back(p.x, p.y);
    return ascii_plot(xy, 44, 14);
  };

  // Ground truth comes from any trial's synthesis (identical seed).
  auto cfg = bench::default_trial(eval::System::kPolarDraw, seed);
  const auto first = eval::run_trial(std::string(1, letter), cfg);
  std::cout << "--- ground truth ('" << letter << "') ---\n"
            << plot(recognition::resample_by_arclength(first.ground_truth, 300))
            << "\n";

  for (auto sys : {eval::System::kPolarDraw, eval::System::kRfIdraw4,
                   eval::System::kTagoram4}) {
    auto scfg = bench::default_trial(sys, seed);
    const auto res = eval::run_trial(std::string(1, letter), scfg);
    std::cout << "--- " << to_string(sys) << " (procrustes "
              << fmt(res.procrustes_m * 100.0, 1) << " cm, recognized '"
              << res.recognized << "') ---\n"
              << plot(res.trajectory) << "\n";
  }
  std::cout << "Paper reference: all three recoveries preserve the basic "
               "letter profile, with stretching/rotation mostly at the "
               "start and end of the trajectory.\n\n";
}

int main() {
  const bench::Session session("fig20");
  run_experiment();
  return session.write_json() ? 0 : 1;
}
