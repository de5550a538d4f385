// Tests of the benchdiff regression sentinel: metric classification, the
// accuracy tolerance and the exact count gate, missing-metric/missing-file
// handling, the markdown report, and an end-to-end directory comparison
// including an injected synthetic regression (the shape the CI self-test
// exercises).
#include "diff.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

namespace polardraw::benchdiff {
namespace {

namespace fs = std::filesystem;

benchjson::Value doc(const std::string& metrics_json) {
  const std::string text = R"({
    "schema_version": 1, "name": "hmm_decode", "git_sha": "abc",
    "smoke": true, "wall_s": 1.0,
    "config": {"reps_scale": 1, "threads": 1},
    "metrics": )" + metrics_json + R"(,
    "counters": {"hmm.beam_expansions": 1000},
    "gauges": {},
    "stages": {"decode": {"count": 10, "total_s": 1.0, "mean_ms": 100.0,
                          "p50_ms": 90.0, "p95_ms": 150.0}}
  })";
  const auto parsed = benchjson::parse(text);
  EXPECT_TRUE(parsed.ok) << parsed.error;
  return parsed.root;
}

Report diff(const std::string& old_metrics, const std::string& new_metrics,
            Thresholds th = {}) {
  Report report;
  compare_docs("BENCH_hmm_decode.json", doc(old_metrics), doc(new_metrics),
               th, report);
  return report;
}

const MetricDelta* find(const Report& r, const std::string& key) {
  for (const auto& d : r.deltas) {
    if (d.key == key) return &d;
  }
  return nullptr;
}

TEST(ClassifyMetric, SuffixConventions) {
  EXPECT_EQ(classify_metric("metrics.accuracy"), MetricClass::kAccuracy);
  EXPECT_EQ(classify_metric("metrics.letter_accuracy"),
            MetricClass::kAccuracy);
  EXPECT_EQ(classify_metric("metrics.trials"), MetricClass::kCount);
  EXPECT_EQ(classify_metric("counters.hmm.beam_expansions"),
            MetricClass::kCount);
  // Machine-dependent figures are reported, never judged.
  EXPECT_EQ(classify_metric("metrics.windows_per_s"), MetricClass::kUnknown);
  EXPECT_EQ(classify_metric("metrics.trial_wall_p95_ms"),
            MetricClass::kUnknown);
  EXPECT_EQ(classify_metric("metrics.windows"), MetricClass::kUnknown);
  EXPECT_EQ(classify_metric("metrics.mystery"), MetricClass::kUnknown);
}

TEST(BenchDiff, IdenticalDocsHaveNoRegression) {
  const Report r = diff(R"({"accuracy": 0.93, "windows_per_s": 1000})",
                        R"({"accuracy": 0.93, "windows_per_s": 1000})");
  EXPECT_FALSE(r.has_regression());
  EXPECT_EQ(r.count(Verdict::kRegressed), 0u);
  EXPECT_GT(r.count(Verdict::kUnchanged), 0u);
}

TEST(BenchDiff, AccuracyDropBeyondAbsToleranceRegresses) {
  const Report r = diff(R"({"accuracy": 0.93})", R"({"accuracy": 0.80})");
  EXPECT_TRUE(r.has_regression());
  const MetricDelta* d = find(r, "metrics.accuracy");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->verdict, Verdict::kRegressed);
  EXPECT_EQ(d->cls, MetricClass::kAccuracy);
}

TEST(BenchDiff, AccuracyJitterWithinAbsTolerancePasses) {
  const Report r = diff(R"({"accuracy": 0.930})", R"({"accuracy": 0.925})");
  EXPECT_FALSE(r.has_regression());
  EXPECT_EQ(find(r, "metrics.accuracy")->verdict, Verdict::kUnchanged);
}

TEST(BenchDiff, AccuracyGainIsImprovedNotRegressed) {
  const Report r = diff(R"({"accuracy": 0.80})", R"({"accuracy": 0.93})");
  EXPECT_FALSE(r.has_regression());
  EXPECT_EQ(find(r, "metrics.accuracy")->verdict, Verdict::kImproved);
}

TEST(BenchDiff, MissingMetricInNewDocRegresses) {
  const Report r = diff(R"({"accuracy": 0.93, "windows_per_s": 1000})",
                        R"({"windows_per_s": 1000})");
  EXPECT_TRUE(r.has_regression());
  const MetricDelta* d = find(r, "metrics.accuracy");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->missing_new);
  EXPECT_EQ(d->verdict, Verdict::kRegressed);
}

TEST(BenchDiff, NewMetricIsReportedAsNew) {
  const Report r = diff(R"({"accuracy": 0.93})",
                        R"({"accuracy": 0.93, "extra_per_s": 5.0})");
  EXPECT_FALSE(r.has_regression());
  const MetricDelta* d = find(r, "metrics.extra_per_s");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->missing_old);
  EXPECT_EQ(d->verdict, Verdict::kNew);
  const std::string md = to_markdown(r, Thresholds{});
  EXPECT_NE(md.find("| metrics.extra_per_s |"), std::string::npos);
  EXPECT_NE(md.find("| new |"), std::string::npos);
  EXPECT_NE(md.find("1 new"), std::string::npos);
}

TEST(BenchDiff, CountDriftFails) {
  const Report r = diff(R"({"trials": 100})", R"({"trials": 101})");
  EXPECT_TRUE(r.has_regression());
  EXPECT_EQ(find(r, "metrics.trials")->verdict, Verdict::kRegressed);
}

TEST(BenchDiff, CustomThresholdsTightenTheGate) {
  Thresholds th;
  th.accuracy_abs_tol = 0.001;
  const Report r = diff(R"({"accuracy": 0.930})", R"({"accuracy": 0.925})", th);
  EXPECT_TRUE(r.has_regression());
}

TEST(BenchDiff, MarkdownNamesTheOffendingMetric) {
  const Report r = diff(R"({"accuracy": 0.93})", R"({"accuracy": 0.50})");
  const std::string md = to_markdown(r, Thresholds{});
  EXPECT_NE(md.find("metrics.accuracy"), std::string::npos);
  EXPECT_NE(md.find("REGRESSED"), std::string::npos);
  EXPECT_NE(md.find("REGRESSION DETECTED"), std::string::npos);
}

class BenchDiffDirs : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs sibling tests as concurrent processes,
    // which must not share (and remove_all) one scratch directory.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::path(::testing::TempDir()) /
            (std::string("benchdiff_") + info->name());
    fs::remove_all(root_);
    fs::create_directories(root_ / "old");
    fs::create_directories(root_ / "new");
  }
  void TearDown() override { fs::remove_all(root_); }

  void write(const std::string& dir, const std::string& name,
             const std::string& metrics_json,
             const std::string& counters_json = "{}") {
    std::ofstream os(root_ / dir / name);
    os << R"({"schema_version": 1, "name": "x", "git_sha": "abc",)"
       << R"( "smoke": true, "wall_s": 1.0, "config": {},)"
       << R"( "metrics": )" << metrics_json << R"(, "counters": )"
       << counters_json << R"(, "gauges": {}, "stages": {}})";
  }

  fs::path root_;
};

TEST_F(BenchDiffDirs, IdenticalDirectoriesAreClean) {
  write("old", "BENCH_a.json", R"({"accuracy": 0.9})");
  write("new", "BENCH_a.json", R"({"accuracy": 0.9})");
  const Report r = compare_dirs((root_ / "old").string(),
                                (root_ / "new").string(), Thresholds{});
  EXPECT_FALSE(r.has_regression());
  EXPECT_TRUE(r.errors.empty());
}

TEST_F(BenchDiffDirs, InjectedRegressionIsDetected) {
  // One extra window is a regression; a 10x throughput drop is only info.
  write("old", "BENCH_a.json", R"({"accuracy": 0.9, "windows_per_s": 1000})",
        R"({"hmm.windows": 16680})");
  write("new", "BENCH_a.json", R"({"accuracy": 0.9, "windows_per_s": 100})",
        R"({"hmm.windows": 16681})");
  const Report r = compare_dirs((root_ / "old").string(),
                                (root_ / "new").string(), Thresholds{});
  EXPECT_TRUE(r.has_regression());
  ASSERT_EQ(r.count(Verdict::kRegressed), 1u);
  EXPECT_EQ(find(r, "counters.hmm.windows")->verdict, Verdict::kRegressed);
  EXPECT_EQ(find(r, "metrics.windows_per_s")->verdict, Verdict::kInfo);
  const std::string md = to_markdown(r, Thresholds{});
  EXPECT_NE(md.find("counters.hmm.windows"), std::string::npos);
}

TEST_F(BenchDiffDirs, MissingFileInNewDirRegresses) {
  write("old", "BENCH_a.json", R"({"accuracy": 0.9})");
  write("old", "BENCH_b.json", R"({"accuracy": 0.9})");
  write("new", "BENCH_a.json", R"({"accuracy": 0.9})");
  const Report r = compare_dirs((root_ / "old").string(),
                                (root_ / "new").string(), Thresholds{});
  EXPECT_TRUE(r.has_regression());
  ASSERT_EQ(r.missing_files.size(), 1u);
  EXPECT_EQ(r.missing_files[0], "BENCH_b.json");
}

TEST_F(BenchDiffDirs, UnparsableFileIsAnError) {
  write("old", "BENCH_a.json", R"({"accuracy": 0.9})");
  std::ofstream(root_ / "new" / "BENCH_a.json") << "{not json";
  const Report r = compare_dirs((root_ / "old").string(),
                                (root_ / "new").string(), Thresholds{});
  EXPECT_TRUE(r.has_regression());
  EXPECT_FALSE(r.errors.empty());
}

TEST_F(BenchDiffDirs, EmptyOldDirectoryIsAnError) {
  const Report r = compare_dirs((root_ / "old").string(),
                                (root_ / "new").string(), Thresholds{});
  EXPECT_TRUE(r.has_regression());
}

}  // namespace
}  // namespace polardraw::benchdiff
