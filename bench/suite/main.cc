// polarbench: one end-to-end benchmark for PolarDraw.
//
//   polarbench --workload <name> [--seed N] [--seconds S]
//              [--traced [--trace-out PATH]] [--json PATH]
//   polarbench --workload <name|all> --smoke
//
// Untraced, a run prints the end-to-end metrics; --traced prints the
// per-layer ledger instead and writes a Perfetto-loadable trace. The last
// stdout line is one JSON object {correct, attempted, failed, metrics};
// --json also writes the full record (stamp, metrics, detail, errors).
// Exit status: 0 ok, 1 a self-check failed, 2 bad usage or a build that
// must not report numbers (Debug or sanitizer).
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/json_writer.h"
#include "suite.h"

namespace {

using polarbench::Options;
using polarbench::Result;
namespace obs = polardraw::obs;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Names and units as in BENCHMARK.json (README.md defines each).
constexpr MetricSpec kEndToEnd[] = {
    {"throughput_per_cpu_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// A layer a workload does not exercise reads 0; the only time-valued entry
// is measured by every workload.
constexpr MetricSpec kPerLayer[] = {
    {"decode.phase_field_build_ms", "ms"},
    {"decode.windows_per_s_1t", "1/s"},
    {"decode.windows", "count"},
    {"decode.expansions_per_window", "count"},
    {"decode.beam_nodes_per_window", "count"},
    {"decode.annulus_reject_ratio", "fraction"},
    {"decode.hyper_cache_hit_ratio", "fraction"},
    {"decode.starved_windows", "count"},
    {"decode.trial_share", "fraction"},
    {"decode.batch_windows_per_s", "1/s"},
    {"server.pump_busy_fraction", "fraction"},
    {"server.windows_per_pump", "count"},
    {"server.windows_per_busy_s", "1/s"},
    {"server.parallel_efficiency", "fraction"},
    {"server.close_share", "fraction"},
    {"server.generator_late_max_windows", "windows"},
    {"server.max_realtime_pens", "pens"},
    {"preprocess.trial_share", "fraction"},
    {"motion.trial_share", "fraction"},
    {"motion.rotational_fraction", "fraction"},
    {"handwriting.trial_share", "fraction"},
    {"recognition.trial_share", "fraction"},
    {"eval.pool_efficiency", "fraction"},
    {"rfid.share", "fraction"},
    {"rfid.min_tag_reads_per_s", "1/s"},
    {"rfid.collision_fraction", "fraction"},
    {"assoc.share", "fraction"},
    {"assoc.phase_window_fraction", "fraction"},
    {"assoc.empty_window_fraction", "fraction"},
    {"obs.trace_overhead_fraction", "fraction"},
};

struct Workload {
  const char* name;
  Result (*run)(const Options&);
};

constexpr Workload kWorkloads[] = {
    {"live_paced", polarbench::live_paced},
    {"backlog_drain", polarbench::backlog_drain},
    {"letters_batch", polarbench::letters_batch},
    {"multipen_air", polarbench::multipen_air},
};

/// Numbers only come from optimized, uninstrumented builds.
bool timing_build() {
#if !defined(NDEBUG) || POLARBENCH_SANITIZED || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return false;
#else
  return true;
#endif
#else
  return true;
#endif
}

void merge_checks(Result& into, const Result& from) {
  into.attempted += from.attempted;
  into.failed += from.failed;
  into.errors.insert(into.errors.end(), from.errors.begin(), from.errors.end());
}

/// The per-layer run: a reference half untraced (for the tracing
/// overhead), then the same workload with the registry and tracer on.
Result run_traced(const Workload& w, const Options& opts,
                  const std::string& trace_path) {
  Options half = opts;
  half.seconds = opts.seconds / 2.0;
  const Result reference = w.run(half);

  Result out;
  merge_checks(out, reference);
  out.set("decode.windows_per_s_1t",
          polarbench::decode_windows_per_s_1t(opts.smoke, opts.seed));

  auto& registry = obs::Registry::global();
  auto& tracer = obs::Tracer::global();
  registry.reset();
  tracer.reset();
  registry.set_enabled(true);
  tracer.set_enabled(true);
  half.traced = true;
  const Result traced = w.run(half);
  registry.set_enabled(false);
  tracer.set_enabled(false);
  merge_checks(out, traced);
  for (const auto& [name, value] : traced.metrics) {
    if (name.find('.') != std::string::npos) out.set(name, value);
  }
  out.detail = traced.detail;

  const obs::Snapshot snap = registry.snapshot();
  const auto c = [&](const char* name) {
    return static_cast<double>(snap.counter(name));
  };
  using polarbench::ratio;
  const double windows = c("hmm.windows");
  out.set("decode.windows", windows);
  out.set("decode.expansions_per_window", ratio(c("hmm.beam_expansions"), windows));
  out.set("decode.beam_nodes_per_window", ratio(c("hmm.beam_nodes"), windows));
  out.set("decode.annulus_reject_ratio",
          ratio(c("hmm.annulus_rejected"), c("hmm.beam_expansions")));
  out.set("decode.hyper_cache_hit_ratio",
          ratio(c("hmm.hyper_cache_hits"),
                c("hmm.hyper_cache_hits") + c("hmm.hyper_cache_misses")));
  out.set("decode.starved_windows", c("hmm.starved_windows"));
  out.set("obs.trace_overhead_fraction",
          1.0 - ratio(traced.metrics.at("throughput_per_cpu_s"),
                      reference.metrics.at("throughput_per_cpu_s")));
  out.note("trace.dropped_events", c("trace.dropped_events"), "events");

  std::ofstream os(trace_path);
  tracer.write_chrome_trace(os);
  if (!os.good()) out.fail("cannot write " + trace_path);
  return out;
}

void write_stamp(obs::JsonWriter& j, const Options& opts) {
  const char* sha = std::getenv("PD_GIT_SHA");
  j.begin_object();
  j.kv("git_sha", sha != nullptr ? sha : "unknown");
  j.kv("compiler", POLARBENCH_COMPILER);
  j.kv("build_type", POLARBENCH_BUILD_TYPE);
  j.kv("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  j.kv("workers", polarbench::kWorkers);
  j.kv("seed", opts.seed);
  j.kv("seconds", opts.seconds);
  j.kv("smoke", opts.smoke);
  j.kv("traced", opts.traced);
  j.end_object();
}

void write_metrics(obs::JsonWriter& j, const Result& r,
                   const MetricSpec* specs, std::size_t n) {
  j.begin_object();
  for (std::size_t i = 0; i < n; ++i) {
    j.key(specs[i].name);
    j.begin_object();
    const auto it = r.metrics.find(specs[i].name);
    j.kv("value", it != r.metrics.end() ? it->second : 0.0);
    j.kv("unit", specs[i].unit);
    j.end_object();
  }
  j.end_object();
}

/// Prints the human-readable block and the final contract line; writes
/// the full record when `json_path` is set. Returns the exit status.
int report(const Workload& w, const Options& opts, Result& r,
           const std::string& json_path) {
  const MetricSpec* specs = opts.traced ? kPerLayer : kEndToEnd;
  const std::size_t n = opts.traced ? std::size(kPerLayer) : std::size(kEndToEnd);
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = r.metrics.find(specs[i].name);
    const bool time_unit = std::strcmp(specs[i].unit, "ms") == 0 ||
                           std::strcmp(specs[i].unit, "s") == 0;
    if ((it == r.metrics.end() && (!opts.traced || time_unit)) ||
        (it != r.metrics.end() && !std::isfinite(it->second))) {
      r.fail(std::string("metric ") + specs[i].name + " was not measured");
    }
  }
  const bool correct = r.errors.empty() && r.failed == 0;

  std::ostringstream stamp;
  {
    obs::JsonWriter j(stamp, obs::JsonWriter::Style::kCompact);
    write_stamp(j, opts);
  }
  std::cout << "# polarbench " << w.name << " " << stamp.str() << "\n";
  for (const auto& d : r.detail) {
    std::cout << "#   " << std::left << std::setw(40) << d.name << " "
              << d.value << " " << d.unit << "\n";
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = r.metrics.find(specs[i].name);
    std::cout << "# = " << std::left << std::setw(40) << specs[i].name << " "
              << (it != r.metrics.end() ? it->second : 0.0) << " "
              << specs[i].unit << "\n";
  }
  for (const auto& e : r.errors) std::cout << "# FAILED: " << e << "\n";

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    obs::JsonWriter j(os);
    j.begin_object();
    j.kv("workload", w.name);
    j.key("stamp");
    write_stamp(j, opts);
    j.kv("correct", correct);
    j.kv("attempted", r.attempted);
    j.kv("failed", r.failed);
    j.key("metrics");
    write_metrics(j, r, specs, n);
    j.key("detail");
    j.begin_object();
    for (const auto& d : r.detail) {
      j.key(d.name);
      j.begin_object();
      j.kv("value", d.value);
      j.kv("unit", d.unit);
      j.end_object();
    }
    j.end_object();
    j.key("errors");
    j.begin_array();
    for (const auto& e : r.errors) j.value(e);
    j.end_array();
    j.end_object();
    os << "\n";
  }

  std::ostringstream line;
  obs::JsonWriter j(line, obs::JsonWriter::Style::kCompact);
  j.begin_object();
  j.kv("correct", correct);
  j.kv("attempted", r.attempted);
  j.kv("failed", r.failed);
  j.key("metrics");
  write_metrics(j, r, specs, n);
  j.end_object();
  std::cout << line.str() << std::endl;
  return correct ? 0 : 1;
}

int usage(const std::string& why) {
  std::cerr << "polarbench: " << why << "\n"
            << "usage: polarbench --workload <live_paced|backlog_drain|"
               "letters_batch|multipen_air> [--seed N] [--seconds S]\n"
               "                  [--traced [--trace-out PATH]] [--json PATH]\n"
               "       polarbench --workload <name|all> --smoke\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string trace_out, json_path;
  bool seconds_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--traced") {
      opts.traced = true;
    } else if (!has_value) {
      return usage("missing value for " + arg);
    } else if (arg == "--workload") {
      opts.workload = argv[++i];
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(argv[++i], nullptr);
      seconds_set = true;
    } else if (arg == "--trace-out") {
      trace_out = argv[++i];
    } else if (arg == "--json") {
      json_path = argv[++i];
    } else {
      return usage("unknown argument " + arg);
    }
  }
  if (!(opts.seconds > 0.0 && opts.seconds <= 600.0)) {
    return usage("--seconds must be in (0, 600]");
  }
  if (opts.smoke && !seconds_set) opts.seconds = 0.4;
  // peak_rss_mb is the peak of the whole process, and --json names one
  // file: measured workloads each run in a process of their own.
  if (opts.workload == "all" && !opts.smoke) {
    return usage("--workload all needs --smoke; measure one workload per process");
  }
  if (!opts.smoke && !timing_build()) {
    std::cerr << "polarbench: refusing to report numbers from a "
              << POLARBENCH_BUILD_TYPE
              << " build (needs NDEBUG and no sanitizer); --smoke still "
                 "runs the self-checks\n";
    return 2;
  }

  int status = 0;
  bool found = false;
  for (const Workload& w : kWorkloads) {
    if (opts.workload != w.name && opts.workload != "all") continue;
    found = true;
    Result r;
    if (opts.traced) {
      r = run_traced(w, opts, trace_out.empty()
                                  ? "TRACE_" + std::string(w.name) + ".json"
                                  : trace_out);
    } else {
      const auto steal0 = polarbench::StealClock::now();
      r = w.run(opts);
      r.set("peak_rss_mb", polarbench::peak_rss_mb());
      r.note("host_steal_fraction",
             polarbench::StealClock::now().fraction_since(steal0), "fraction");
    }
    status = std::max(status, report(w, opts, r, json_path));
  }
  if (!found) return usage("unknown workload '" + opts.workload + "'");
  return status;
}
