#include "common/stats.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace polardraw {
namespace {

TEST(RunningStats, EmptyDefaults) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.push(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStats, MatchesBatchOnRandomData) {
  Rng rng(77);
  RunningStats s;
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.gaussian(3.0, 2.5);
    xs.push_back(x);
    s.push(x);
  }
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size());
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), var, 1e-9);
}

TEST(Percentile, EdgesAndMedian) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(median(v), 3.0);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 90.0), 9.0);
}

TEST(Percentile, UnsortedInputHandled) {
  EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 3.0}, 50.0), 3.0);
}

TEST(Percentile, DegenerateInputs) {
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(percentile({42.0}, 99.0), 42.0);
  // Out-of-range p clamps.
  EXPECT_EQ(percentile({1.0, 2.0}, -5.0), 1.0);
  EXPECT_EQ(percentile({1.0, 2.0}, 150.0), 2.0);
}

TEST(Rng, DeterministicWithSeed) {
  Rng a(5), b(5);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, ForkIndependentOfParentDraws) {
  Rng a(9);
  Rng fork = a.fork();
  const double first = fork.uniform();
  Rng b(9);
  Rng fork2 = b.fork();
  EXPECT_EQ(first, fork2.uniform());
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.push(rng.gaussian(1.0, 2.0));
  EXPECT_NEAR(s.mean(), 1.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

}  // namespace
}  // namespace polardraw
