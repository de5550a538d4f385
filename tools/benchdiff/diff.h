// benchdiff: the bench-trajectory regression sentinel (DESIGN.md sec. 12).
//
// Compares two directories of BENCH_*.json exports (an "old" baseline and
// a "new" candidate) metric by metric and judges only what is the same on
// every machine. Accuracy metrics are deterministic under pinned seeds, so
// they get a tight absolute tolerance. Registry counters and the trial
// count are exact: any change or disappearance fails, because the ledger
// counters (hmm.* per window, preprocess.*, rfid.*) do not depend on the
// machine or the thread count. Every other metric (trial wall times, say)
// is reported as info; gauges, wall_s and span timings are not compared.
// Speed is polarbench's job (bench/suite).
#pragma once

#include <string>
#include <vector>

#include "json.h"

namespace polardraw::benchdiff {

/// How a metric is judged. Direction encodes which way "worse" points.
enum class MetricClass {
  kAccuracy,  // higher is better, absolute tolerance (deterministic)
  kCount,     // exact: counters.* and metrics.trials; any change fails
  kUnknown,   // informational only
};

/// Verdict for a single metric delta. kNew marks a metric present only in
/// the candidate (a freshly added export) — surfaced explicitly in the
/// markdown so new instrumentation is visible in review, never a failure.
enum class Verdict { kUnchanged, kImproved, kRegressed, kInfo, kNew };

/// Noise thresholds. An accuracy delta within tolerance is kUnchanged;
/// beyond it, the direction decides improved vs regressed.
struct Thresholds {
  /// Absolute tolerance for accuracy-class metrics (fractions in [0,1]).
  double accuracy_abs_tol = 0.01;
};

/// One compared metric.
struct MetricDelta {
  std::string file;    // e.g. "BENCH_fig13.json"
  std::string key;     // dotted path, e.g. "counters.hmm.windows"
  MetricClass cls = MetricClass::kUnknown;
  Verdict verdict = Verdict::kInfo;
  bool missing_old = false;
  bool missing_new = false;
  double old_value = 0.0;
  double new_value = 0.0;
};

/// Full comparison outcome.
struct Report {
  std::vector<MetricDelta> deltas;
  /// Files present in the old dir but absent from the new one (always a
  /// regression: the candidate stopped producing an export).
  std::vector<std::string> missing_files;
  /// Files only in the new dir (informational).
  std::vector<std::string> new_files;
  std::vector<std::string> errors;  // parse/IO problems (fail the run)

  [[nodiscard]] bool has_regression() const;
  [[nodiscard]] std::size_t count(Verdict v) const;
};

/// Classifies a dotted metric path (e.g. "metrics.accuracy",
/// "counters.hmm.windows"): a leaf naming accuracy is kAccuracy, counters
/// and metrics.trials are kCount, anything else is kUnknown.
[[nodiscard]] MetricClass classify_metric(const std::string& key);

/// Compares two parsed BENCH_*.json documents; appends deltas to `out`.
void compare_docs(const std::string& file, const benchjson::Value& old_doc,
                  const benchjson::Value& new_doc, const Thresholds& th,
                  Report& out);

/// Compares every BENCH_*.json in `old_dir` against its namesake in
/// `new_dir`.
[[nodiscard]] Report compare_dirs(const std::string& old_dir,
                                  const std::string& new_dir,
                                  const Thresholds& th);

/// Renders the report as a markdown delta table (regressions first).
[[nodiscard]] std::string to_markdown(const Report& report,
                                      const Thresholds& th);

}  // namespace polardraw::benchdiff
