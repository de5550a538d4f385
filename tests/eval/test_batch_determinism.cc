// Regression tests for deterministic per-trial seeding and the parallel
// batch harness: trial k's outcome must be a pure function of
// (base seed, trial index), never of execution order or thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "common/seed.h"
#include "eval/harness.h"
#include "recognition/classifier.h"

namespace polardraw::eval {
namespace {

bool same_outcome(const TrialResult& a, const TrialResult& b) {
  if (a.text != b.text || a.recognized != b.recognized ||
      a.all_correct != b.all_correct || a.procrustes_m != b.procrustes_m ||
      a.report_count != b.report_count ||
      a.trajectory.size() != b.trajectory.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.trajectory.size(); ++i) {
    if (!(a.trajectory[i] == b.trajectory[i])) return false;
  }
  return true;
}

std::vector<TrialSpec> letter_sweep_specs(const std::string& letters, int reps,
                                          std::uint64_t base) {
  std::vector<TrialSpec> specs;
  for (char c : letters) {
    for (int r = 0; r < reps; ++r) {
      TrialSpec spec{std::string(1, c), TrialConfig{}};
      spec.cfg.system = System::kPolarDraw;
      spec.cfg.seed = trial_seed(base, specs.size());
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

// The original bug: seeds were chained through mutable LCG state in loop
// order, so trial k's result depended on how many trials ran before it.
// With counter-based derivation, trial k is identical whether the batch
// runs forward, reversed, or the trial runs alone.
TEST(TrialSeeding, OrderIndependentForwardReversedAlone) {
  const auto specs = letter_sweep_specs("IO", 2, 321);
  auto reversed = specs;
  std::reverse(reversed.begin(), reversed.end());

  const auto forward_results = run_trials(specs, 1);
  const auto reversed_results = run_trials(reversed, 1);

  ASSERT_EQ(forward_results.size(), 4u);
  for (std::size_t k = 0; k < specs.size(); ++k) {
    // Same trial, opposite batch position.
    EXPECT_TRUE(same_outcome(forward_results[k],
                             reversed_results[specs.size() - 1 - k]))
        << "trial " << k << " depends on execution order";
  }
  // And alone, outside any batch.
  const auto alone = run_trial(specs[2].text, specs[2].cfg);
  EXPECT_TRUE(same_outcome(forward_results[2], alone));
}

TEST(TrialSeeding, LetterAccuracyTrialsMatchStandaloneRuns) {
  TrialConfig cfg;
  cfg.system = System::kPolarDraw;
  cfg.seed = 321;
  std::vector<TrialResult> results;
  letter_accuracy("IO", 2, cfg, nullptr, 1, &results);
  ASSERT_EQ(results.size(), 4u);
  // Trial 3 is ("O", rep 1): reproduce it alone from the same base seed.
  TrialConfig alone_cfg = cfg;
  alone_cfg.seed = trial_seed(cfg.seed, 3);
  EXPECT_TRUE(same_outcome(results[3], run_trial("O", alone_cfg)));
}

// The word sweep is word-major: trial k writes test_word(2, k / reps) from
// trial_seed(cfg.seed, k). fig18 and ext_nlp both read it in that order.
TEST(TrialSeeding, WordAccuracyTrialsMatchStandaloneRuns) {
  TrialConfig cfg;
  cfg.system = System::kPolarDraw;
  cfg.seed = 321;
  std::vector<TrialResult> results;
  word_accuracy(2, 2, cfg, &results, 1);
  ASSERT_EQ(results.size(), 20u);
  for (std::size_t k = 0; k < results.size(); ++k) {
    TrialConfig alone_cfg = cfg;
    alone_cfg.seed = trial_seed(cfg.seed, k);
    EXPECT_TRUE(
        same_outcome(results[k], run_trial(test_word(2, k / 2), alone_cfg)))
        << "trial " << k;
  }
}

// The satellite determinism test: the same 26-letter sweep at 1, 2 and 8
// threads must give identical accuracy, confusion matrix, and per-trial
// Procrustes distances.
TEST(BatchHarness, TwentySixLetterSweepIdenticalAt1_2_8Threads) {
  const std::string alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
  TrialConfig cfg;
  cfg.system = System::kPolarDraw;
  cfg.seed = 777;

  struct Sweep {
    double accuracy;
    recognition::ConfusionMatrix cm;
    std::vector<TrialResult> results;
  };
  Sweep sweeps[3];
  const int thread_counts[3] = {1, 2, 8};
  for (int s = 0; s < 3; ++s) {
    sweeps[s].accuracy = letter_accuracy(alphabet, 1, cfg, &sweeps[s].cm,
                                         thread_counts[s], &sweeps[s].results);
  }

  for (int s = 1; s < 3; ++s) {
    EXPECT_EQ(sweeps[s].accuracy, sweeps[0].accuracy)
        << "accuracy differs at " << thread_counts[s] << " threads";
    for (char truth : alphabet) {
      for (char predicted : alphabet) {
        EXPECT_EQ(sweeps[s].cm.count(truth, predicted),
                  sweeps[0].cm.count(truth, predicted))
            << "confusion cell (" << truth << "," << predicted
            << ") differs at " << thread_counts[s] << " threads";
      }
    }
    ASSERT_EQ(sweeps[s].results.size(), sweeps[0].results.size());
    for (std::size_t k = 0; k < sweeps[0].results.size(); ++k) {
      EXPECT_EQ(sweeps[s].results[k].procrustes_m,
                sweeps[0].results[k].procrustes_m)
          << "Procrustes distance of trial " << k << " differs at "
          << thread_counts[s] << " threads";
    }
  }
}

TEST(BatchHarness, WordAccuracyIdenticalAcrossThreadCounts) {
  TrialConfig cfg;
  cfg.system = System::kPolarDraw;
  cfg.seed = 7000;
  std::vector<TrialResult> serial, threaded;
  const double a = word_accuracy(2, 1, cfg, &serial, 1);
  const double b = word_accuracy(2, 1, cfg, &threaded, 4);
  EXPECT_EQ(a, b);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t k = 0; k < serial.size(); ++k) {
    EXPECT_TRUE(same_outcome(serial[k], threaded[k])) << "trial " << k;
  }
}

// PolarDraw's streaming decoder and the baselines' grid decode prune
// through one per-thread set of radix keys (common/beam.h). In a batch
// that interleaves the three systems, every trial must decode exactly as
// it does alone on a fresh thread, whichever decoders its worker ran
// before it.
TEST(BatchHarness, MixedSystemsMatchIsolatedTrials) {
  const System systems[3] = {System::kPolarDraw, System::kTagoram4,
                             System::kRfIdraw4};
  const std::string letters = "CMOSUWZAE";
  std::vector<TrialSpec> specs;
  for (const char c : letters) {
    TrialSpec spec{std::string(1, c), TrialConfig{}};
    spec.cfg.system = systems[specs.size() % 3];
    spec.cfg.seed = trial_seed(505, specs.size());
    specs.push_back(std::move(spec));
  }
  std::vector<TrialResult> alone(specs.size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    std::thread([&] { alone[k] = run_trial(specs[k].text, specs[k].cfg); })
        .join();
  }
  for (const int threads : {1, 8}) {
    const auto batch = run_trials(specs, threads);
    ASSERT_EQ(batch.size(), specs.size());
    for (std::size_t k = 0; k < specs.size(); ++k) {
      EXPECT_TRUE(same_outcome(batch[k], alone[k]))
          << "trial " << k << " (" << to_string(specs[k].cfg.system)
          << ") at " << threads << " threads";
    }
  }
}

TEST(BatchHarness, TrialsRecordTheirWallTime) {
  TrialConfig cfg;
  cfg.system = System::kPolarDraw;
  cfg.seed = 11;
  const auto res = run_trial("A", cfg);
  EXPECT_GT(res.wall_s, 0.0);
}

}  // namespace
}  // namespace polardraw::eval
