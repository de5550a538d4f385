// Integration tests: the full PolarDraw pipeline against the simulation
// substrate (synthesize -> reader -> track -> score).
#include <gtest/gtest.h>

#include "core/polardraw.h"
#include "eval/harness.h"
#include "recognition/procrustes.h"
#include "sim/scene.h"

namespace polardraw::core {
namespace {

eval::TrialResult run(const std::string& text, eval::System system,
                      std::uint64_t seed) {
  eval::TrialConfig cfg;
  cfg.system = system;
  cfg.seed = seed;
  return eval::run_trial(text, cfg);
}

TEST(Pipeline, TracksSingleLetterWithinPaperBand) {
  // Median tracking error in the paper is ~10 cm; individual clean trials
  // on this substrate land well under that.
  const auto res = run("O", eval::System::kPolarDraw, 5);
  EXPECT_GT(res.trajectory.size(), 40u);
  EXPECT_LT(res.procrustes_m, 0.12);
}

TEST(Pipeline, RecognizesEasyLetters) {
  int ok = 0;
  for (char c : std::string("IMNOZ")) {
    const auto res = run(std::string(1, c), eval::System::kPolarDraw,
                         100 + static_cast<std::uint64_t>(c));
    ok += res.all_correct ? 1 : 0;
  }
  EXPECT_GE(ok, 4);
}

TEST(Pipeline, DeterministicAcrossRuns) {
  const auto a = run("S", eval::System::kPolarDraw, 9);
  const auto b = run("S", eval::System::kPolarDraw, 9);
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
  for (std::size_t i = 0; i < a.trajectory.size(); i += 7) {
    EXPECT_EQ(a.trajectory[i], b.trajectory[i]);
  }
  EXPECT_EQ(a.recognized, b.recognized);
}

TEST(Pipeline, StrictAblationCollapses) {
  // Table 6's "w/o polarization": with the orientation model removed the
  // trajectory shape collapses (the paper reports 23% vs 91%).
  int full_ok = 0, ablated_ok = 0;
  for (char c : std::string("CLMOSUWZ")) {
    const std::string s(1, c);
    full_ok += run(s, eval::System::kPolarDraw, 31).all_correct ? 1 : 0;
    ablated_ok += run(s, eval::System::kPolarDrawNoPol, 31).all_correct ? 1 : 0;
  }
  EXPECT_GT(full_ok, ablated_ok + 2);
}

TEST(Pipeline, TrajectoriesStayOnBoard) {
  const auto res = run("W", eval::System::kPolarDraw, 12);
  // The grid confines the decoded tag track to the board; the tip
  // estimate may sit up to a tag-offset outside it.
  for (const auto& p : res.trajectory) {
    EXPECT_GE(p.x, -0.04);
    EXPECT_LE(p.x, 1.04);
    EXPECT_GE(p.y, -0.04);
    EXPECT_LE(p.y, 0.64);
  }
}

TEST(Pipeline, WindowCountsConsistent) {
  eval::TrialConfig cfg;
  cfg.system = eval::System::kPolarDraw;
  cfg.seed = 4;
  eval::apply_system_layout(cfg);
  cfg.scene.seed = cfg.seed;
  sim::Scene scene(cfg.scene);
  Rng rng(cfg.seed * 7919 + 13);
  const auto trace = handwriting::synthesize("B", cfg.synth, rng);
  const auto reports = scene.run(trace);
  const PhaseCalibration cal{scene.reader().port_phase_offsets(), {}};
  const auto apos = scene.antenna_board_positions();
  PolarDraw tracker(cfg.algo, apos[0], apos[1], 0.12);
  const auto result = tracker.track(reports, &cal);
  EXPECT_EQ(result.rotational_windows + result.translational_windows +
                result.idle_windows,
            static_cast<int>(result.diagnostics.size()));
  EXPECT_GT(result.translational_windows, 0);
}

TEST(Pipeline, FarFutureReportLeavesTheTrackUnchanged) {
  // One report stamped 10^4 s past a letter's last (a jumped reader
  // clock) is dropped by the window clock: the track is that of the
  // letter without it, instead of ~10^5 empty windows decoded.
  eval::TrialConfig cfg;
  cfg.system = eval::System::kPolarDraw;
  cfg.seed = 777;
  eval::apply_system_layout(cfg);
  cfg.scene.seed = cfg.seed;
  sim::Scene scene(cfg.scene);
  Rng rng(cfg.seed * 7919 + 13);
  const auto trace = handwriting::synthesize("A", cfg.synth, rng);
  const auto reports = scene.run(trace);
  ASSERT_FALSE(reports.empty());
  auto hostile = reports;
  hostile.push_back(reports.back());
  hostile.back().timestamp_s += 1e4;
  const PhaseCalibration cal{scene.reader().port_phase_offsets(), {}};
  const auto apos = scene.antenna_board_positions();
  const PolarDraw tracker(cfg.algo, apos[0], apos[1],
                          scene.antennas()[0].position.z);
  const auto want = tracker.track(reports, &cal);
  const auto got = tracker.track(hostile, &cal);
  ASSERT_GT(want.trajectory.size(), 40u);
  EXPECT_EQ(got.diagnostics.size(), want.diagnostics.size());
  ASSERT_EQ(got.trajectory.size(), want.trajectory.size());
  for (std::size_t i = 0; i < want.trajectory.size(); ++i) {
    EXPECT_EQ(got.trajectory[i].x, want.trajectory[i].x) << i;
    EXPECT_EQ(got.trajectory[i].y, want.trajectory[i].y) << i;
  }
}

TEST(Pipeline, BaselinesTrackToo) {
  for (auto sys : {eval::System::kTagoram2, eval::System::kTagoram4,
                   eval::System::kRfIdraw4}) {
    const auto res = run("O", sys, 21);
    EXPECT_GT(res.trajectory.size(), 40u) << to_string(sys);
    EXPECT_LT(res.procrustes_m, 0.12) << to_string(sys);
  }
}

TEST(Pipeline, WordTrialClassifiesPerLetter) {
  const auto res = run("AT", eval::System::kPolarDraw, 77);
  EXPECT_EQ(res.recognized.size(), 2u);
}

TEST(Harness, SystemNamesDistinct) {
  EXPECT_NE(to_string(eval::System::kPolarDraw),
            to_string(eval::System::kTagoram4));
  EXPECT_NE(to_string(eval::System::kPolarDrawNoPol),
            to_string(eval::System::kPolarDrawNoPolPhaseDir));
}

TEST(Harness, TestWordsDeterministicAndSized) {
  for (std::size_t len = 2; len <= 5; ++len) {
    for (std::size_t i = 0; i < 10; ++i) {
      const auto w = eval::test_word(len, i);
      EXPECT_EQ(w.size(), len);
      EXPECT_EQ(w, eval::test_word(len, i));
    }
  }
  // Out-of-range lengths clamp.
  EXPECT_EQ(eval::test_word(1, 0).size(), 2u);
  EXPECT_EQ(eval::test_word(9, 0).size(), 5u);
}

TEST(Harness, LetterAccuracyFillsConfusion) {
  eval::TrialConfig cfg;
  cfg.system = eval::System::kPolarDraw;
  cfg.seed = 55;
  recognition::ConfusionMatrix cm;
  const double acc = eval::letter_accuracy("IO", 2, cfg, &cm);
  EXPECT_EQ(cm.total(), 4);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

}  // namespace
}  // namespace polardraw::core
