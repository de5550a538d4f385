// Unit tests of the metrics registry (obs/metrics.h): enable/disable
// semantics, histogram bucketing and percentiles, gauge max-merge, and
// the thread-count invariance contract counters are documented to hold.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "obs/trace.h"

namespace polardraw::obs {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::global().set_enabled(true);
    Registry::global().reset();
  }
  void TearDown() override {
    Registry::global().reset();
    Registry::global().set_enabled(false);
  }
};

TEST_F(MetricsTest, CounterAccumulates) {
  const Counter c("test.counter_accumulates");
  c.add();
  c.add(41);
  const Snapshot snap = Registry::global().snapshot();
  EXPECT_EQ(snap.counter("test.counter_accumulates"), 42u);
}

TEST_F(MetricsTest, DisabledCounterIsDropped) {
  const Counter c("test.disabled_counter");
  Registry::global().set_enabled(false);
  c.add(1000);
  Registry::global().set_enabled(true);
  EXPECT_EQ(Registry::global().snapshot().counter("test.disabled_counter"),
            0u);
}

TEST_F(MetricsTest, UnknownCounterReadsZero) {
  EXPECT_EQ(Registry::global().snapshot().counter("test.never_registered"),
            0u);
}

TEST_F(MetricsTest, ResetClearsDataButKeepsRegistration) {
  const Counter c("test.reset_counter");
  c.add(7);
  Registry::global().reset();
  EXPECT_EQ(Registry::global().snapshot().counter("test.reset_counter"), 0u);
  c.add(3);
  EXPECT_EQ(Registry::global().snapshot().counter("test.reset_counter"), 3u);
}

TEST_F(MetricsTest, GaugeMergesByMax) {
  const Gauge g("test.gauge_max");
  g.set_max(2.0);
  g.set_max(9.0);
  g.set_max(4.0);
  const Snapshot snap = Registry::global().snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].first, "test.gauge_max");
  EXPECT_EQ(snap.gauges[0].second, 9.0);
}

TEST_F(MetricsTest, HistogramBucketsAndStats) {
  const std::vector<double> bounds{1.0, 2.0, 5.0};
  const Histogram h("test.hist_buckets", bounds);
  h.observe(0.5);   // bucket 0 (<= 1)
  h.observe(1.5);   // bucket 1 (<= 2)
  h.observe(3.0);   // bucket 2 (<= 5)
  h.observe(10.0);  // overflow
  const Snapshot snap = Registry::global().snapshot();
  const HistogramSnapshot* hs = snap.histogram("test.hist_buckets");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 4u);
  ASSERT_EQ(hs->counts.size(), 4u);
  EXPECT_EQ(hs->counts[0], 1u);
  EXPECT_EQ(hs->counts[1], 1u);
  EXPECT_EQ(hs->counts[2], 1u);
  EXPECT_EQ(hs->counts[3], 1u);
  EXPECT_DOUBLE_EQ(hs->sum, 15.0);
  EXPECT_EQ(hs->min, 0.5);
  EXPECT_EQ(hs->max, 10.0);
  EXPECT_DOUBLE_EQ(hs->mean(), 3.75);
  // The overflow bucket reports the observed maximum; percentiles are
  // monotone in p and bounded by [min, max].
  EXPECT_EQ(hs->percentile(100.0), 10.0);
  double last = hs->percentile(0.0);
  EXPECT_GE(last, hs->min);
  for (double p = 10.0; p <= 100.0; p += 10.0) {
    const double v = hs->percentile(p);
    EXPECT_GE(v, last);
    last = v;
  }
  EXPECT_LE(last, hs->max);
}

TEST_F(MetricsTest, HistogramSingleObservationPercentiles) {
  const Histogram h("test.hist_single", {1.0, 2.0});
  h.observe(1.5);
  const Snapshot snap = Registry::global().snapshot();
  const HistogramSnapshot* hs = snap.histogram("test.hist_single");
  ASSERT_NE(hs, nullptr);
  // Every percentile of a single sample is bracketed by that sample's
  // bucket and the observed extremes.
  EXPECT_GE(hs->percentile(50.0), hs->min);
  EXPECT_LE(hs->percentile(50.0), 2.0);
}

TEST_F(MetricsTest, SnapshotIsNameSorted) {
  const Counter b("test.sorted_b");
  const Counter a("test.sorted_a");
  b.add(1);
  a.add(1);
  const Snapshot snap = Registry::global().snapshot();
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first);
  }
}

TEST_F(MetricsTest, ScopedSpanObservesOnlyWhenEnabled) {
  const SpanSite site("test.span_hist");
  {
    const ScopedSpan span(site);
  }
  EXPECT_EQ(Registry::global().snapshot().histogram("test.span_hist")->count,
            1u);
  Registry::global().set_enabled(false);
  {
    const ScopedSpan span(site);
  }
  Registry::global().set_enabled(true);
  EXPECT_EQ(Registry::global().snapshot().histogram("test.span_hist")->count,
            1u);
}

// Metric ids have no fixed cap: a shard grows to the largest id its
// thread has touched, so ids past 4,096 of a kind are recorded too.
TEST_F(MetricsTest, IdsPastTheOldSlotCapAreRecorded) {
  constexpr int kIds = 4200;
  std::vector<Counter> counters;
  std::vector<Histogram> hists;
  for (int i = 0; i < kIds; ++i) {
    const std::string suffix = std::to_string(i);
    counters.emplace_back("test.many_ids.counter_" + suffix);
    hists.emplace_back("test.many_ids.hist_" + suffix,
                       std::vector<double>{1.0});
  }
  counters.back().add(7);
  hists.back().observe(0.5);
  const Snapshot snap = Registry::global().snapshot();
  EXPECT_EQ(snap.counter("test.many_ids.counter_4199"), 7u);
  const HistogramSnapshot* h = snap.histogram("test.many_ids.hist_4199");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
}

// The determinism contract: counter totals are identical whatever thread
// count performed the increments (commutative merge of per-thread shards).
TEST_F(MetricsTest, CounterTotalsAreThreadCountInvariant) {
  constexpr std::size_t kItems = 64;
  constexpr std::uint64_t kPerItem = 1000;
  std::vector<std::uint64_t> totals;
  for (const int n_threads : {1, 8}) {
    Registry::global().reset();
    const Counter c("test.thread_invariant");
    const Histogram h("test.thread_invariant_hist", {0.5, 1.5, 2.5});
    {
      ThreadPool pool(n_threads);
      pool.parallel_for(kItems, [&](std::size_t i) {
        for (std::uint64_t k = 0; k < kPerItem; ++k) c.add();
        h.observe(static_cast<double>(i % 3));
      });
    }
    const Snapshot snap = Registry::global().snapshot();
    totals.push_back(snap.counter("test.thread_invariant"));
    const HistogramSnapshot* hs =
        snap.histogram("test.thread_invariant_hist");
    ASSERT_NE(hs, nullptr);
    EXPECT_EQ(hs->count, kItems);
  }
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0], kItems * kPerItem);
  EXPECT_EQ(totals[0], totals[1]);
}

// Worker threads that exit while the registry lives must flush their
// shards (TLS destructor -> retired accumulator), not lose them.
TEST_F(MetricsTest, RetiredThreadShardsSurviveJoin) {
  const Counter c("test.retired_shards");
  {
    ThreadPool pool(4);
    pool.parallel_for(16, [&](std::size_t) { c.add(); });
  }  // pool destructor joins the workers; their shards retire
  EXPECT_EQ(Registry::global().snapshot().counter("test.retired_shards"),
            16u);
}

}  // namespace
}  // namespace polardraw::obs
