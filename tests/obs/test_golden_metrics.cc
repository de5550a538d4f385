// Golden end-to-end metrics: a fixed-seed trial must produce exactly the
// pinned counter values (the pipeline's work is deterministic, so any
// drift here is a real behavior change), metrics on/off must not perturb
// trial outputs by a single bit, and counter totals must be identical at
// every thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "eval/harness.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace polardraw {
namespace {

eval::TrialConfig golden_config() {
  eval::TrialConfig cfg;
  cfg.system = eval::System::kPolarDraw;
  cfg.seed = 2016;
  return cfg;
}

class GoldenMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::global().set_enabled(true);
    obs::Registry::global().reset();
  }
  void TearDown() override {
    obs::Registry::global().reset();
    obs::Registry::global().set_enabled(false);
  }
};

TEST_F(GoldenMetricsTest, PinnedCountersForFixedSeedTrial) {
  const eval::TrialResult result = eval::run_trial("R", golden_config());
  const obs::Snapshot snap = obs::Registry::global().snapshot();

  // Cross-checks against the trial's own outputs.
  EXPECT_EQ(snap.counter("eval.trials"), 1u);
  EXPECT_EQ(snap.counter("rfid.reports"), result.report_count);
  EXPECT_EQ(snap.counter("classifier.calls"), 1u);

  // Golden pins: regenerate by running this test and copying the actual
  // values after any intentional pipeline change.
  const std::pair<const char*, std::uint64_t> kGolden[] = {
      {"rfid.interrogations", 807},
      {"rfid.reports", 807},
      {"preprocess.windows", 162},
      {"preprocess.phase_rejected", 1},
      {"rotation.steps", 41},
      {"translation.steps", 120},
      {"hmm.windows", 162},
      {"hmm.beam_expansions", 2131232},
      {"hmm.beam_nodes", 94705},
      {"hmm.annulus_rejected", 1703706},
      {"hmm.starved_windows", 0},
  };
  for (const auto& [name, expected] : kGolden) {
    EXPECT_EQ(snap.counter(name), expected) << name;
  }
  for (const auto& [name, v] : snap.gauges) {
    if (name == "hmm.beam_occupancy_peak") {
      EXPECT_EQ(v, 600.0);  // the full beam: this trial never prunes to less
    }
  }
  if (::testing::Test::HasFailure()) {
    // Dump everything so the pins above can be regenerated in one run.
    for (const auto& [name, v] : snap.counters) {
      std::fprintf(stderr, "      {\"%s\", %llu},\n", name.c_str(),
                   static_cast<unsigned long long>(v));
    }
    for (const auto& [name, v] : snap.gauges) {
      std::fprintf(stderr, "      gauge %s = %f\n", name.c_str(), v);
    }
  }
}

// Enabling metrics must not perturb the pipeline: same seed, same
// trajectory and score, bit for bit, with the registry on or off.
TEST_F(GoldenMetricsTest, TrialOutputsBitIdenticalWithMetricsOnAndOff) {
  const eval::TrialResult on = eval::run_trial("W", golden_config());

  obs::Registry::global().reset();
  obs::Registry::global().set_enabled(false);
  const eval::TrialResult off = eval::run_trial("W", golden_config());
  obs::Registry::global().set_enabled(true);

  EXPECT_EQ(on.recognized, off.recognized);
  EXPECT_EQ(on.all_correct, off.all_correct);
  EXPECT_EQ(on.report_count, off.report_count);
  EXPECT_EQ(on.procrustes_m, off.procrustes_m);  // exact, not approximate
  ASSERT_EQ(on.trajectory.size(), off.trajectory.size());
  for (std::size_t i = 0; i < on.trajectory.size(); ++i) {
    EXPECT_EQ(on.trajectory[i].x, off.trajectory[i].x) << "window " << i;
    EXPECT_EQ(on.trajectory[i].y, off.trajectory[i].y) << "window " << i;
  }
}

// The tracer holds the same zero-feedback contract as the registry:
// recording a timeline must not perturb the pipeline by a single bit.
TEST_F(GoldenMetricsTest, TrialOutputsBitIdenticalWithTracingOnAndOff) {
  obs::Tracer::global().set_enabled(true);
  obs::Tracer::global().reset();
  const eval::TrialResult on = eval::run_trial("W", golden_config());
  const auto threads = obs::Tracer::global().snapshot();
  obs::Tracer::global().reset();
  obs::Tracer::global().set_enabled(false);
  const eval::TrialResult off = eval::run_trial("W", golden_config());

  // The traced run actually recorded the decode timeline...
  std::size_t events = 0;
  for (const auto& t : threads) events += t.events.size();
  EXPECT_GT(events, 0u);
  // ...and changed nothing about the trial.
  EXPECT_EQ(on.recognized, off.recognized);
  EXPECT_EQ(on.all_correct, off.all_correct);
  EXPECT_EQ(on.report_count, off.report_count);
  EXPECT_EQ(on.procrustes_m, off.procrustes_m);  // exact, not approximate
  ASSERT_EQ(on.trajectory.size(), off.trajectory.size());
  for (std::size_t i = 0; i < on.trajectory.size(); ++i) {
    EXPECT_EQ(on.trajectory[i].x, off.trajectory[i].x) << "window " << i;
    EXPECT_EQ(on.trajectory[i].y, off.trajectory[i].y) << "window " << i;
  }
}

// Counters merge by commutative addition across worker shards, so a batch
// must produce identical totals at 1 and 8 threads. (Span histograms
// measure wall clock and are exempt; the beam-occupancy gauge is a max,
// which is also order-independent.)
TEST_F(GoldenMetricsTest, BatchCountersInvariantAcrossThreadCounts) {
  std::vector<eval::TrialSpec> specs;
  std::uint64_t index = 0;
  for (const char letter : {'A', 'B'}) {
    for (int rep = 0; rep < 2; ++rep) {
      eval::TrialSpec spec;
      spec.text = std::string(1, letter);
      spec.cfg = golden_config();
      spec.cfg.seed = eval::trial_seed(2016, index++);
      specs.push_back(spec);
    }
  }

  std::vector<std::pair<std::string, std::uint64_t>> counters_1t, counters_8t;
  double peak_1t = 0.0, peak_8t = 0.0;
  {
    obs::Registry::global().reset();
    const auto results = eval::run_trials(specs, 1);
    ASSERT_EQ(results.size(), specs.size());
    const obs::Snapshot snap = obs::Registry::global().snapshot();
    counters_1t = snap.counters;
    for (const auto& [name, v] : snap.gauges) {
      if (name == "hmm.beam_occupancy_peak") peak_1t = v;
    }
  }
  {
    obs::Registry::global().reset();
    const auto results = eval::run_trials(specs, 8);
    ASSERT_EQ(results.size(), specs.size());
    const obs::Snapshot snap = obs::Registry::global().snapshot();
    counters_8t = snap.counters;
    for (const auto& [name, v] : snap.gauges) {
      if (name == "hmm.beam_occupancy_peak") peak_8t = v;
    }
  }

  ASSERT_EQ(counters_1t.size(), counters_8t.size());
  for (std::size_t i = 0; i < counters_1t.size(); ++i) {
    EXPECT_EQ(counters_1t[i].first, counters_8t[i].first);
    EXPECT_EQ(counters_1t[i].second, counters_8t[i].second)
        << counters_1t[i].first;
  }
  EXPECT_GT(peak_1t, 0.0);
  EXPECT_EQ(peak_1t, peak_8t);
  // The batch really ran through the instrumented pipeline.
  bool saw_trials = false;
  for (const auto& [name, v] : counters_1t) {
    if (name == "eval.trials") {
      saw_trials = true;
      EXPECT_EQ(v, specs.size());
    }
  }
  EXPECT_TRUE(saw_trials);
}

}  // namespace
}  // namespace polardraw
