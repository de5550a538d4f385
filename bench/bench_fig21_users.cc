// Figure 21: recognition accuracy across users, three systems.
//
// Four writers with distinct styles; User 2 is instructed to write with
// an unnaturally "stiff" wrist (almost no pen rotation), probing graceful
// degradation of the polarization path. The paper finds all systems
// roughly consistent across users, PolarDraw slightly diminished for the
// stiff writer but still high.
#include "bench_common.h"

#include "handwriting/user.h"

using namespace polardraw;

static void run_experiment() {
  bench::banner("Figure 21", "Recognition accuracy across users");
  Table t({"User", "PolarDraw-2 (%)", "RF-IDraw-4 (%)", "Tagoram-4 (%)"});
  const int reps = 2 * bench::reps_scale();
  bench::Stopwatch watch;
  bench::TrialTimes times;
  for (int user = 1; user <= 4; ++user) {
    std::array<double, 3> acc{};
    const eval::System systems[3] = {eval::System::kPolarDraw,
                                     eval::System::kRfIdraw4,
                                     eval::System::kTagoram4};
    for (int s = 0; s < 3; ++s) {
      auto cfg = bench::default_trial(systems[s], 9000 + 101 * user);
      cfg.synth.user = handwriting::user_style(user);
      std::vector<eval::TrialResult> results;
      acc[s] = eval::letter_accuracy(bench::ten_letters(), reps, cfg, nullptr,
                                     bench::n_threads(), &results) *
               100.0;
      times.add(results);
    }
    t.add_row({handwriting::user_style(user).name, fmt(acc[0], 1),
               fmt(acc[1], 1), fmt(acc[2], 1)});
  }
  bench::emit(t, "fig21_users");
  std::cout << "\nPaper reference: consistent accuracy across users; "
               "User 2's stiff style dents PolarDraw only slightly.\n";
  times.report(std::cout, watch.seconds());
  std::cout << "\n";
}

int main() {
  const bench::Session session("fig21");
  run_experiment();
  return session.write_json() ? 0 : 1;
}
