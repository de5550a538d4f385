// polarbench: pieces shared by the four workloads -- run options, the
// result record a workload fills in, timing/statistics helpers, and the
// layer probes every traced run reports.
//
// Every layer is timed from outside, around calls to its public functions;
// finer splits come from what the program already exports (TrialResult
// stages and the core.*/rfid.*/hmm.*/assoc.* registry spans and counters).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/vec.h"
#include "core/config.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace polarbench {

using Clock = std::chrono::steady_clock;

/// Pool size everywhere: the pump/batch caller thread counts as one of
/// them, so the benchmark never runs more than this many busy threads.
inline constexpr int kWorkers = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured interval.
  double seconds = 10.0;
  /// Tiny inputs for the ctest smoke run; the self-checks stay on.
  bool smoke = false;
  /// The registry and tracer are on: fill the per-layer metrics.
  bool traced = false;
};

/// A figure printed for people reading the output, under the metric names
/// the benchmark's documentation uses (window_latency_p99_ms, ...).
struct Detail {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run of a workload measured and checked.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Self-check failures; a non-empty list makes the run incorrect.
  std::vector<std::string> errors;
  /// End-to-end and per-layer metrics by their BENCHMARK.json names.
  std::map<std::string, double> metrics;
  std::vector<Detail> detail;

  void fail(const std::string& why) { errors.push_back(why); }
  void set(const std::string& name, double value) { metrics[name] = value; }
  void note(const std::string& name, double value, const std::string& unit) {
    detail.push_back({name, value, unit});
  }
};

Result live_paced(const Options& opts);
Result backlog_drain(const Options& opts);
Result letters_batch(const Options& opts);
Result multipen_air(const Options& opts);

// --- Helpers (common.cc) ----------------------------------------------------

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// a / b, or 0 when b is 0 (a layer the workload does not exercise).
inline double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// CPU time of the whole process (every thread), seconds. On a shared
/// virtual machine the hypervisor's steal is not counted, so CPU time per
/// unit of work repeats where wall time follows the neighbours' load.
double process_cpu_s();

/// CPU time of the calling thread, seconds.
double thread_cpu_s();

/// Linear-interpolated percentile, p in [0, 100]; 0 for no samples.
double pct(const std::vector<double>& values, double p);

/// Peak resident set of this process, MB.
double peak_rss_mb();

/// Share of all CPU time since `since` that the hypervisor gave to other
/// guests (the steal column of /proc/stat); 0 where the host reports
/// none. Printed with every run: on a shared host it explains slow runs.
struct StealClock {
  double steal = 0.0, total = 0.0;
  static StealClock now();
  double fraction_since(const StealClock& since) const;
};

/// Per-pen input seed: splitmix64(seed, pen).
std::uint64_t pen_seed(std::uint64_t seed, std::uint64_t pen);

bool all_finite(const std::vector<polardraw::Vec2>& traj);
/// Bitwise equality of two trajectories (no float tolerance, -0 != +0).
bool bit_identical(const std::vector<polardraw::Vec2>& a,
                   const std::vector<polardraw::Vec2>& b);

/// Median process CPU time of `reps` calls of `make`, in seconds: the
/// set-up figure, repeated so one slow construction does not decide it.
/// The last object built stays in `keep`; tearing down the previous one
/// is not timed.
template <typename T, typename F>
double median_setup_s(int reps, std::unique_ptr<T>& keep, F&& make) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    keep.reset();
    const double c0 = process_cpu_s();
    keep = make();
    times.push_back(process_cpu_s() - c0);
  }
  return pct(times, 50.0);
}

/// The units of work a run is cut into (a pump of live traffic, a drain, a
/// chunk of trials, a scene): the items they carried, the process CPU and
/// wall time they took, and every item's wall-clock latency. Rates are
/// totals over all units. What a unit costs depends on its inputs (the CPU
/// per pen-second of one multipen scene differs from the next by 15%,
/// fixed by the scene's seed), and the total averages that out better than
/// a median over units does.
struct Units {
  std::size_t count = 0;
  double items = 0.0, cpu_s = 0.0, wall_s = 0.0;
  std::vector<double> latency_ms;

  void add(double unit_items, double unit_cpu_s, double unit_wall_s,
           const std::vector<double>& unit_latency_ms);
  /// Sets throughput_per_cpu_s.
  void report(Result& r) const;
  double wall_rate() const { return ratio(items, wall_s); }
  double latency(double p) const { return pct(latency_ms, p); }
};

/// Switches the registry and tracer off for its lifetime (restoring the
/// previous state): untraced side measurements inside a traced run.
class ObsPause {
 public:
  ObsPause();
  ~ObsPause();
  ObsPause(const ObsPause&) = delete;
  ObsPause& operator=(const ObsPause&) = delete;

 private:
  bool metrics_on_;
  bool trace_on_;
};

/// Records a bench-side span on the calling thread's trace track from
/// timestamps the caller already read (no-op unless tracing).
void trace_span(const char* name, Clock::time_point begin,
                Clock::time_point end);

/// Whole units of work (a drain, a round of scenes, a chunk of trials) fill
/// the measured interval: another unit starts only while it would end at
/// most half a unit past `seconds`.
inline bool another_unit(double elapsed_s, double last_unit_s, double seconds) {
  return elapsed_s + 0.5 * last_unit_s < seconds;
}

/// Sum of a registry span histogram, seconds (0 when absent).
double span_total_s(const polardraw::obs::Snapshot& snap, const char* name);

/// The decode configuration the server workloads share; smoke shrinks the
/// board and beam so a whole run takes a fraction of a second.
polardraw::core::PolarDrawConfig server_config(bool smoke);

/// decode.phase_field_build_ms: median PhaseField construction time for
/// the given grid and antenna layout.
double phase_field_build_ms(const polardraw::core::PolarDrawConfig& cfg,
                            polardraw::Vec2 a1, polardraw::Vec2 a2,
                            double antenna_z, bool smoke);

/// decode.windows_per_s_1t: StreamingDecoder push/poll/finish on eight
/// seeded testbed pens, one thread, default lag.
double decode_windows_per_s_1t(bool smoke, std::uint64_t seed);

}  // namespace polarbench
