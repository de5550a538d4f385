// Deterministic, thread-safe metrics registry (DESIGN.md section 11).
//
// The pipeline stages (reader -> preprocess -> trackers -> classifier)
// report counters, gauges and fixed-bucket histograms into one global
// registry. Three properties the evaluation harness depends on:
//
//   * Zero feedback: metrics only *observe* the pipeline. Enabling or
//     disabling them never changes a trial's trajectory, RNG stream or
//     aggregate -- instrumented code must never branch on metric state.
//   * Thread-count invariance for counters: each thread accumulates into
//     its own shard; shards merge by commutative addition (counters),
//     max (gauges) and bucket-wise addition (histograms), so totals are
//     bit-identical whether a batch ran on 1 or 8 workers.
//   * Near-zero cost when disabled: every handle operation is one relaxed
//     atomic load and a predictable branch; no clocks are read and no TLS
//     is touched.
//
// Shards are merged when their owning thread exits (thread_pool workers
// join in the pool destructor) and read under their lock by snapshot().
//
// Concurrent reads (DESIGN.md section 17): each thread's shard is guarded
// by its own mutex, which the owning thread takes for every update and
// snapshot(), reset() and the thread-exit merge take while they read or
// rewrite the shard. Both are therefore safe while instrumented work is in
// flight -- a live statusz endpoint can read the registry mid-decode --
// and every snapshot is exact per shard. The lock is uncontended except
// during those reads. In the quiescent case ("run_trials(); snapshot()")
// the merge order is fixed, so the result is bit-identical run to run.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace polardraw::obs {

/// Merged view of one histogram: fixed upper bounds plus an overflow
/// bucket, with bucket-interpolated percentiles for reporting.
struct HistogramSnapshot {
  std::vector<double> bounds;          // ascending bucket upper bounds
  std::vector<std::uint64_t> counts;   // bounds.size() + 1 (last = overflow)
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // meaningful only when count > 0
  double max = 0.0;

  /// Percentile estimate (p in [0, 100]) by linear interpolation inside
  /// the containing bucket; the overflow bucket reports `max`.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
};

/// Point-in-time merged state of the registry, sorted by metric name.
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// Counter value by name (0 when absent).
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  /// Histogram by name (nullptr when absent).
  [[nodiscard]] const HistogramSnapshot* histogram(std::string_view name) const;
};

/// Default histogram bounds for span durations in seconds: a 1-2-5 decade
/// ladder from 1 microsecond to 50 seconds.
[[nodiscard]] const std::vector<double>& default_time_bounds_s();

/// Log-spaced histogram bounds: `per_decade` geometrically spaced upper
/// bounds per decade from `lo` to `hi` (both included). Finer than the
/// 1-2-5 ladder, for latency SLO histograms whose percentile
/// interpolation error must stay small (e.g. server.push_to_commit_s).
[[nodiscard]] std::vector<double> log_spaced_bounds(double lo, double hi,
                                                    int per_decade);

class Registry {
 public:
  /// The process-wide registry. Enabled at startup when the
  /// POLARDRAW_METRICS environment variable is set to anything but "0".
  static Registry& global();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Registers (or looks up) a metric; ids are stable for the registry's
  /// lifetime and shared by all threads. Re-registering a histogram name
  /// keeps the first bounds.
  int counter_id(const std::string& name);
  int gauge_id(const std::string& name);
  int histogram_id(const std::string& name,
                   const std::vector<double>& bounds = default_time_bounds_s());

  void set_enabled(bool on);
  [[nodiscard]] bool enabled() const;

  // Raw slot operations; prefer the typed handles below.
  void counter_add(int id, std::uint64_t n);
  void gauge_max(int id, double v);  // merge rule: max across threads
  void histogram_observe(int id, double v);

  /// Merges retired and live shards, each read under its lock. Safe to
  /// call while instrumented work is in flight (see file top).
  [[nodiscard]] Snapshot snapshot() const;
  /// Zeroes all accumulated data; registrations survive. Safe to call
  /// while instrumented work is in flight.
  void reset();

  // Implementation detail, public only so the thread-local shard holder in
  // metrics.cc can name its owning registry.
  struct Impl;

 private:
  Registry();  // global() is the only instance
  Impl* impl_;
};

/// Named counter handle; cheap to copy, safe to keep in function-local
/// statics inside instrumented code.
class Counter {
 public:
  explicit Counter(const std::string& name)
      : id_(Registry::global().counter_id(name)) {}
  void add(std::uint64_t n = 1) const {
    Registry& r = Registry::global();
    if (r.enabled()) r.counter_add(id_, n);
  }

 private:
  int id_;
};

/// Named gauge handle; set() keeps the maximum across all threads (the
/// only order-independent merge for a last-value metric).
class Gauge {
 public:
  explicit Gauge(const std::string& name)
      : id_(Registry::global().gauge_id(name)) {}
  void set_max(double v) const {
    Registry& r = Registry::global();
    if (r.enabled()) r.gauge_max(id_, v);
  }

 private:
  int id_;
};

/// Named fixed-bucket histogram handle.
class Histogram {
 public:
  explicit Histogram(const std::string& name)
      : id_(Registry::global().histogram_id(name)) {}
  Histogram(const std::string& name, const std::vector<double>& bounds)
      : id_(Registry::global().histogram_id(name, bounds)) {}
  void observe(double v) const {
    Registry& r = Registry::global();
    if (r.enabled()) r.histogram_observe(id_, v);
  }

 private:
  int id_;
};

}  // namespace polardraw::obs
