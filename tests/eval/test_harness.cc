// Tests for the evaluation harness itself: system/layout wiring, trial
// plumbing, and accuracy aggregation.
#include <gtest/gtest.h>

#include "eval/harness.h"

namespace polardraw::eval {
namespace {

TEST(ApplySystemLayout, PolarDrawGetsLinearRig) {
  TrialConfig cfg;
  cfg.system = System::kPolarDraw;
  apply_system_layout(cfg);
  EXPECT_EQ(cfg.scene.layout, sim::RigLayout::kPolarDrawTwoAntenna);
  EXPECT_TRUE(cfg.algo.use_polarization);
  EXPECT_TRUE(cfg.algo.use_phase_direction);
}

TEST(ApplySystemLayout, StrictAblationDisablesBothPaths) {
  TrialConfig cfg;
  cfg.system = System::kPolarDrawNoPol;
  apply_system_layout(cfg);
  EXPECT_FALSE(cfg.algo.use_polarization);
  EXPECT_FALSE(cfg.algo.use_phase_direction);
}

TEST(ApplySystemLayout, CharitableAblationKeepsPhaseDirection) {
  TrialConfig cfg;
  cfg.system = System::kPolarDrawNoPolPhaseDir;
  apply_system_layout(cfg);
  EXPECT_FALSE(cfg.algo.use_polarization);
  EXPECT_TRUE(cfg.algo.use_phase_direction);
}

TEST(ApplySystemLayout, BaselinesGetTheirRigs) {
  TrialConfig cfg;
  cfg.system = System::kTagoram4;
  apply_system_layout(cfg);
  EXPECT_EQ(cfg.scene.layout, sim::RigLayout::kTagoramFourAntenna);
  cfg.system = System::kRfIdraw4;
  apply_system_layout(cfg);
  EXPECT_EQ(cfg.scene.layout, sim::RigLayout::kRfIdrawFourAntenna);
  cfg.system = System::kTagoram2;
  apply_system_layout(cfg);
  EXPECT_EQ(cfg.scene.layout, sim::RigLayout::kTagoramTwoAntenna);
}

TEST(ApplySystemLayout, GammaPropagatesToAlgorithm) {
  TrialConfig cfg;
  cfg.system = System::kPolarDraw;
  cfg.scene.gamma_rad = 0.7;
  apply_system_layout(cfg);
  EXPECT_EQ(cfg.algo.gamma_rad, 0.7);
  EXPECT_EQ(cfg.algo.board_width_m, cfg.scene.board_width_m);
}

TEST(RunTrial, PopulatesAllOutputs) {
  TrialConfig cfg;
  cfg.system = System::kPolarDraw;
  cfg.seed = 71;
  const auto res = run_trial("C", cfg);
  EXPECT_EQ(res.text, "C");
  EXPECT_GT(res.report_count, 100u);
  EXPECT_FALSE(res.trajectory.empty());
  EXPECT_FALSE(res.ground_truth.empty());
  EXPECT_GT(res.procrustes_m, 0.0);
  EXPECT_EQ(res.recognized.size(), 1u);
}

TEST(RunTrial, UnknownCharactersNotCorrect) {
  TrialConfig cfg;
  cfg.system = System::kPolarDraw;
  cfg.seed = 72;
  const auto res = run_trial("7", cfg);
  EXPECT_FALSE(res.all_correct);
  EXPECT_TRUE(res.trajectory.empty());
}

TEST(RunTrial, LowercaseInputJudgedCaseInsensitively) {
  TrialConfig cfg;
  cfg.system = System::kPolarDraw;
  cfg.seed = 73;
  const auto res = run_trial("o", cfg);
  // Recognition output is uppercase; correctness must not depend on the
  // input's case.
  if (res.recognized == "O") {
    EXPECT_TRUE(res.all_correct);
  }
}

TEST(RunTrial, BeamWidthSetsTheBaselinesBeams) {
  // One knob, cfg.algo.beam_width, sets the beam of all three systems: a
  // one-node beam decodes a baseline greedily, so its trajectory moves
  // off the default beam's.
  for (const System system : {System::kTagoram4, System::kRfIdraw4}) {
    TrialConfig cfg;
    cfg.system = system;
    cfg.seed = 74;
    const auto wide = run_trial("S", cfg);
    cfg.algo.beam_width = 1;
    const auto greedy = run_trial("S", cfg);
    ASSERT_EQ(greedy.trajectory.size(), wide.trajectory.size());
    EXPECT_NE(greedy.trajectory, wide.trajectory) << to_string(system);
  }
}

TEST(LetterAccuracy, DeterministicForSameConfig) {
  TrialConfig cfg;
  cfg.system = System::kPolarDraw;
  cfg.seed = 74;
  const double a = letter_accuracy("IO", 2, cfg);
  const double b = letter_accuracy("IO", 2, cfg);
  EXPECT_EQ(a, b);
}

TEST(LetterAccuracy, SeedChangesOutcomeStream) {
  TrialConfig a, b;
  a.system = b.system = System::kPolarDraw;
  a.seed = 75;
  b.seed = 76;
  // Different seed chains give different trials; the trajectories differ
  // even if accuracy happens to match, so compare a trajectory.
  const auto ra = run_trial("S", a);
  const auto rb = run_trial("S", b);
  bool differ = ra.trajectory.size() != rb.trajectory.size();
  for (std::size_t i = 0; !differ && i < ra.trajectory.size(); ++i) {
    differ = !(ra.trajectory[i] == rb.trajectory[i]);
  }
  EXPECT_TRUE(differ);
}

TEST(LetterAccuracy, EmptyInputsGiveZero) {
  TrialConfig cfg;
  cfg.system = System::kPolarDraw;
  EXPECT_EQ(letter_accuracy("", 3, cfg), 0.0);
  EXPECT_EQ(letter_accuracy("AB", 0, cfg), 0.0);
}

TEST(TestWords, AllHaveGlyphs) {
  for (std::size_t len = 2; len <= 5; ++len) {
    for (std::size_t i = 0; i < 10; ++i) {
      for (char c : test_word(len, i)) {
        EXPECT_TRUE(handwriting::has_glyph(c)) << c;
      }
    }
  }
}

TEST(TestWords, GroupsAreDistinctWords) {
  for (std::size_t len = 2; len <= 5; ++len) {
    std::set<std::string> unique;
    for (std::size_t i = 0; i < 10; ++i) unique.insert(test_word(len, i));
    EXPECT_EQ(unique.size(), 10u) << "length " << len;
  }
}

}  // namespace
}  // namespace polardraw::eval
