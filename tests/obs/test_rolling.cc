// Unit tests of the deterministic sliding-window aggregator
// (obs/rolling.h), its agreement with the registry histogram it shares an
// accumulator with, and the percentile-interpolation edge cases it leans
// on (empty snapshot, single populated bucket, overflow bucket), plus the
// log-spaced bucket generator feeding the server latency histogram.
#include "obs/rolling.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "obs/metrics.h"

namespace polardraw::obs {
namespace {

std::vector<double> tiny_bounds() { return {0.001, 0.01, 0.1, 1.0}; }

TEST(RollingWindow, EmptyWindowReportsZeros) {
  RollingWindow w(10.0, 0.5, tiny_bounds());
  const HistogramSnapshot s = w.stats();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.sum, 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(99.0), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(RollingWindow, AggregatesWithinTheWindow) {
  RollingWindow w(10.0, 1.0, tiny_bounds());
  w.observe(0.2, 0.005);
  w.observe(1.4, 0.020);
  w.observe(2.9, 0.050);
  const HistogramSnapshot s = w.stats();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 0.075);
  EXPECT_DOUBLE_EQ(s.min, 0.005);
  EXPECT_DOUBLE_EQ(s.max, 0.050);
  EXPECT_DOUBLE_EQ(s.mean(), 0.025);
  EXPECT_GT(s.percentile(99.0), s.percentile(50.0));
}

TEST(RollingWindow, OldStepsExpireAsTimeAdvances) {
  RollingWindow w(4.0, 1.0, tiny_bounds());
  w.observe(0.5, 0.002);   // step 0
  w.observe(1.5, 0.020);   // step 1
  EXPECT_EQ(w.stats().count, 2u);
  // Expiry is whole-step quantized: advancing to t=4.4 (step 4) keeps the
  // 4 steps ending at index 4 alive, i.e. indices 1..4. Step 0 expires,
  // step 1 survives.
  w.advance_to(4.4);
  const HistogramSnapshot s = w.stats();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.min, 0.020);
  // Far future: everything expires.
  w.advance_to(100.0);
  EXPECT_EQ(w.stats().count, 0u);
}

TEST(RollingWindow, TimeNeverMovesBackwards) {
  RollingWindow w(4.0, 1.0, tiny_bounds());
  w.observe(10.0, 0.01);
  w.advance_to(2.0);  // no-op
  EXPECT_DOUBLE_EQ(w.now_s(), 10.0);
  // A late-arriving old sample still counts (into the current step).
  w.observe(3.0, 0.02);
  EXPECT_EQ(w.stats().count, 2u);
}

TEST(RollingWindow, ReplayIsBitIdentical) {
  // The determinism contract: the same observation stream reproduces the
  // same stats at every step regardless of when queries happen.
  const auto run = [](bool query_every_step) {
    RollingWindow w(8.0, 0.5, tiny_bounds());
    std::vector<HistogramSnapshot> out;
    for (int i = 0; i < 200; ++i) {
      const double t = 0.13 * i;
      w.observe(t, 0.001 * ((i * 37) % 90 + 1));
      if (query_every_step) (void)w.stats();  // must not perturb state
      if (i % 10 == 9) out.push_back(w.stats());
    }
    return out;
  };
  const auto a = run(false);
  const auto b = run(true);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].count, b[i].count) << i;
    EXPECT_EQ(a[i].sum, b[i].sum) << i;
    EXPECT_EQ(a[i].percentile(50.0), b[i].percentile(50.0)) << i;
    EXPECT_EQ(a[i].percentile(99.0), b[i].percentile(99.0)) << i;
  }
}

TEST(RollingWindow, WindowRoundsUpToWholeSteps) {
  RollingWindow w(1.2, 0.5, tiny_bounds());
  EXPECT_DOUBLE_EQ(w.window_s(), 1.5);
}

TEST(RollingWindow, StepBeforeTimeZeroCounts) {
  // Step -1 is also the empty-step marker. A first observation in
  // [-step_s, 0) lands in a step that was never reset and still counts.
  RollingWindow w(10.0, 0.5, tiny_bounds());
  w.observe(-0.25, 0.002);
  const HistogramSnapshot s = w.stats();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.counts[1], 1u);
  EXPECT_EQ(s.min, 0.002);
  // Step 15 is live together with step -1 (the window spans steps
  // -4..15), so it must not reuse step -1's ring slot.
  w.observe(7.6, 0.002);
  EXPECT_EQ(w.stats().count, 2u);
}

TEST(RollingWindow, OneStepMatchesTheRegistryHistogram) {
  // One accumulator serves both: the same values over the same bounds,
  // all inside one step, give the same histogram to the bit.
  Registry& reg = Registry::global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  const Histogram h("test.rolling.one_step", tiny_bounds());
  RollingWindow w(10.0, 0.5, tiny_bounds());
  // Bucket edges, a repeat and the overflow bucket.
  for (const double v :
       {0.0005, 0.001, 0.004, 0.01, 0.01, 0.05, 0.1, 0.7, 1.0, 3.0}) {
    h.observe(v);
    w.observe(1.1, v);
  }
  const Snapshot snap = reg.snapshot();
  reg.set_enabled(was_enabled);
  const HistogramSnapshot* want = snap.histogram("test.rolling.one_step");
  ASSERT_NE(want, nullptr);
  const HistogramSnapshot got = w.stats();
  EXPECT_EQ(got.counts, want->counts);
  EXPECT_EQ(got.count, want->count);
  EXPECT_EQ(got.sum, want->sum);
  EXPECT_EQ(got.min, want->min);
  EXPECT_EQ(got.max, want->max);
  for (const double p : {0.0, 1.0, 25.0, 50.0, 75.0, 99.0, 100.0}) {
    EXPECT_EQ(got.percentile(p), want->percentile(p)) << "p" << p;
  }
}

// --- Percentile interpolation edge cases (HistogramSnapshot) -------------

HistogramSnapshot make_hist(std::vector<double> bounds,
                            std::vector<std::uint64_t> counts, double min,
                            double max) {
  HistogramSnapshot h;
  h.bounds = std::move(bounds);
  h.counts = std::move(counts);
  for (const std::uint64_t c : h.counts) h.count += c;
  h.min = min;
  h.max = max;
  return h;
}

TEST(PercentileEdgeCases, EmptyHistogramReturnsZero) {
  const HistogramSnapshot h = make_hist({0.1, 1.0}, {0, 0, 0}, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 0.0);
}

TEST(PercentileEdgeCases, SinglePopulatedBucketStaysWithinObservedRange) {
  // All mass in one interior bucket: every percentile must land inside
  // [min, max], never at a bucket edge outside the observed range.
  const HistogramSnapshot h =
      make_hist({0.1, 1.0, 10.0}, {0, 5, 0, 0}, 0.3, 0.7);
  for (const double p : {1.0, 25.0, 50.0, 75.0, 99.0}) {
    const double v = h.percentile(p);
    EXPECT_GE(v, 0.3) << "p" << p;
    EXPECT_LE(v, 0.7) << "p" << p;
  }
  EXPECT_LT(h.percentile(10.0), h.percentile(90.0));
}

TEST(PercentileEdgeCases, OverflowBucketReportsObservedMax) {
  // Mass beyond the last bound has no upper edge to interpolate against;
  // the observed max is the only honest answer.
  const HistogramSnapshot h = make_hist({0.1, 1.0}, {0, 0, 4}, 3.0, 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 42.0);
}

TEST(PercentileEdgeCases, ClampsOutOfRangePercentiles) {
  const HistogramSnapshot h = make_hist({0.1, 1.0}, {3, 0, 0}, 0.02, 0.05);
  EXPECT_DOUBLE_EQ(h.percentile(-5.0), h.percentile(0.0));
  EXPECT_DOUBLE_EQ(h.percentile(500.0), h.percentile(100.0));
}

// --- Log-spaced bucket generator -----------------------------------------

TEST(LogSpacedBounds, CoversTheRequestedDecadesGeometrically) {
  const auto b = log_spaced_bounds(1e-3, 10.0, 6);
  ASSERT_GE(b.size(), 2u);
  // First edge at lo, last edge at or just above hi.
  EXPECT_DOUBLE_EQ(b.front(), 1e-3);
  EXPECT_GE(b.back(), 10.0 * (1.0 - 1e-12));
  // Strictly increasing with a constant ratio (6 per decade).
  // polarlint-allow(R2): geometric bucket ratio, not a dB conversion.
  const double expected_ratio = std::pow(10.0, 1.0 / 6.0);
  for (std::size_t i = 1; i < b.size(); ++i) {
    ASSERT_GT(b[i], b[i - 1]);
    EXPECT_NEAR(b[i] / b[i - 1], expected_ratio, 1e-9) << i;
  }
}

}  // namespace
}  // namespace polardraw::obs
