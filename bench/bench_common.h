// Shared scaffolding for the experiment benches.
//
// Every bench binary reproduces one table or figure from the paper: it
// runs the experiment and prints the paper-style rows (plus the paper's
// numbers for side-by-side comparison). Speed is polarbench's job
// (bench/suite); these binaries report what the figure reports. All
// binaries run standalone with no arguments; PD_BENCH_REPS scales the
// trial count (default keeps the full suite to a few minutes on one core).
#pragma once

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "eval/harness.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace polardraw::bench {

/// Repetition multiplier from the environment (default 1).
inline int reps_scale() {
  const char* env = std::getenv("PD_BENCH_REPS");
  if (env == nullptr) return 1;
  const int v = std::atoi(env);
  return v > 0 ? v : 1;
}

/// Headline metrics recorded by the experiment sections for the JSON
/// export (insertion-ordered; re-recording a key overwrites its value).
inline std::vector<std::pair<std::string, double>>& recorded_metrics() {
  static std::vector<std::pair<std::string, double>> metrics;
  return metrics;
}

/// Records (or overwrites) one headline metric, e.g. the experiment's
/// aggregate accuracy. Safe to call with no Session alive.
inline void record_metric(const std::string& key, double value) {
  for (auto& [k, v] : recorded_metrics()) {
    if (k == key) {
      v = value;
      return;
    }
  }
  recorded_metrics().emplace_back(key, value);
}

/// Worker threads for the batch trial API: POLARDRAW_THREADS when set,
/// otherwise all hardware threads. Trial results are bit-identical at any
/// value; this only changes wall-clock time.
inline int n_threads() { return ThreadPool::default_thread_count(); }

/// Wall-clock stopwatch for the experiment sections.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Accumulates per-trial wall times (TrialResult::wall_s) across an
/// experiment and prints the batch-throughput summary line.
class TrialTimes {
 public:
  void add(const std::vector<eval::TrialResult>& results) {
    for (const auto& r : results) times_.push_back(r.wall_s);
  }
  void add(const eval::TrialResult& result) { times_.push_back(result.wall_s); }

  /// "N trials in W s on T threads (cpu X s, mean Y ms/trial, p90 Z ms)".
  /// Also records the batch's trial-wall summary (count, p50/p95 ms) as
  /// headline metrics so the JSON export surfaces TrialResult::wall_s.
  void report(std::ostream& os, double elapsed_s) const {
    if (times_.empty()) return;
    double cpu = 0.0;
    for (double t : times_) cpu += t;
    const auto n = static_cast<double>(times_.size());
    record_metric("trials", n);
    record_metric("trial_wall_p50_ms", 1e3 * percentile(times_, 50.0));
    record_metric("trial_wall_p95_ms", 1e3 * percentile(times_, 95.0));
    os << times_.size() << " trials in " << fmt(elapsed_s, 2) << " s on "
       << n_threads() << " thread(s): trial cpu " << fmt(cpu, 2)
       << " s, mean " << fmt(1e3 * cpu / n, 1)
       << " ms/trial, p90 " << fmt(percentile(times_, 90.0) * 1e3, 1)
       << " ms.\n";
  }

 private:
  std::vector<double> times_;
};

/// Prints the standard bench banner.
inline void banner(const std::string& id, const std::string& title) {
  std::cout << "==============================================================\n"
            << id << ": " << title << "\n"
            << "==============================================================\n";
}

/// One bench binary's JSON-export session (DESIGN.md section 11).
///
/// Construct before the experiment, write_json() after it:
///
///   int main() {
///     const bench::Session session("fig13");
///     run_experiment();                 // bench::record_metric(...) inside
///     return session.write_json() ? 0 : 1;
///   }
///
/// When PD_BENCH_JSON_DIR is set the constructor enables (and resets) the
/// metrics registry so the pipeline's spans and counters accumulate, and
/// write_json() writes <dir>/BENCH_<name>.json: git SHA (PD_GIT_SHA), run
/// config, the recorded headline metrics, all registry counters/gauges,
/// and per-stage span percentiles.
class Session {
 public:
  explicit Session(std::string name) : name_(std::move(name)) {
    if (json_enabled()) {
      obs::Registry::global().set_enabled(true);
      obs::Registry::global().reset();
    }
    if (trace_enabled()) {
      // The tracer also self-enables at startup from PD_TRACE_DIR; reset
      // here so the trace covers exactly this session's experiment.
      obs::Tracer::global().set_enabled(true);
      obs::Tracer::global().reset();
      obs::Tracer::global().set_current_thread_name("main");
    }
  }

  /// True when write_json() will write BENCH_<name>.json.
  [[nodiscard]] static bool json_enabled() {
    return std::getenv("PD_BENCH_JSON_DIR") != nullptr;
  }

  /// True when write_json() will write TRACE_<name>.json (DESIGN.md sec. 12).
  [[nodiscard]] static bool trace_enabled() {
    return std::getenv("PD_TRACE_DIR") != nullptr;
  }

  /// Writes the Chrome trace-event export (no-op without PD_TRACE_DIR).
  /// Returns false when the file could not be written.
  bool write_trace() const {
    const char* dir = std::getenv("PD_TRACE_DIR");
    if (dir == nullptr) return true;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path =
        std::string(dir) + "/TRACE_" + name_ + ".json";
    std::ofstream os(path);
    if (!os) {
      std::cerr << "bench: PD_TRACE_DIR is not writable, cannot write "
                << path << "\n";
      return false;
    }
    obs::Tracer::global().write_chrome_trace(os);
    return os.good();
  }

  /// Writes the JSON export (no-op without PD_BENCH_JSON_DIR) and, when
  /// tracing, the TRACE_<name>.json timeline. Returns false when either
  /// file could not be written.
  bool write_json() const {
    const bool trace_ok = write_trace();
    const char* dir = std::getenv("PD_BENCH_JSON_DIR");
    if (dir == nullptr) return trace_ok;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (!std::filesystem::exists(dir)) {
      std::cerr << "benchjson: PD_BENCH_JSON_DIR (" << dir
                << ") does not exist and could not be created\n";
      return false;
    }
    const std::string path =
        std::string(dir) + "/BENCH_" + name_ + ".json";
    std::ofstream os(path);
    if (!os) {
      std::cerr << "benchjson: PD_BENCH_JSON_DIR is not writable, cannot "
                << "write " << path << "\n";
      return false;
    }
    const obs::Snapshot snap = obs::Registry::global().snapshot();
    const char* sha = std::getenv("PD_GIT_SHA");
    obs::JsonWriter w(os);
    w.begin_object();
    w.kv("schema_version", 1);
    w.kv("name", name_);
    w.kv("git_sha", sha != nullptr ? sha : "unknown");
    w.kv("wall_s", watch_.seconds());
    w.key("config");
    w.begin_object();
    w.kv("reps_scale", reps_scale());
    w.kv("threads", n_threads());
    w.end_object();
    w.key("metrics");
    w.begin_object();
    for (const auto& [k, v] : recorded_metrics()) w.kv(k, v);
    w.end_object();
    w.key("counters");
    w.begin_object();
    for (const auto& [k, v] : snap.counters) w.kv(k, v);
    w.end_object();
    w.key("gauges");
    w.begin_object();
    for (const auto& [k, v] : snap.gauges) w.kv(k, v);
    w.end_object();
    w.key("stages");
    w.begin_object();
    for (const auto& [k, h] : snap.histograms) {
      w.key(k);
      w.begin_object();
      w.kv("count", h.count);
      w.kv("total_s", h.sum);
      w.kv("mean_ms", 1e3 * h.mean());
      w.kv("p50_ms", 1e3 * h.percentile(50.0));
      w.kv("p95_ms", 1e3 * h.percentile(95.0));
      w.end_object();
    }
    w.end_object();
    w.end_object();
    os << "\n";
    return os.good() && trace_ok;
  }

 private:
  std::string name_;
  Stopwatch watch_;
};

/// Prints a table and, when PD_BENCH_CSV_DIR is set, also writes it as
/// <dir>/<name>.csv for downstream plotting.
inline void emit(const Table& t, const std::string& name) {
  t.print(std::cout);
  if (const char* dir = std::getenv("PD_BENCH_CSV_DIR")) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::ofstream csv(std::string(dir) + "/" + name + ".csv");
    if (csv) t.write_csv(csv);
  }
}

/// A default trial config for PolarDraw experiments.
inline eval::TrialConfig default_trial(eval::System system,
                                       std::uint64_t seed) {
  eval::TrialConfig cfg;
  cfg.system = system;
  cfg.seed = seed;
  return cfg;
}

/// Letter set used by the "randomly choose 10 letters" microbenchmarks.
inline const std::string& ten_letters() {
  static const std::string s = "ACELMOSUWZ";
  return s;
}

}  // namespace polardraw::bench
