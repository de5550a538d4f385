// Per-thread ring-buffer event tracer (DESIGN.md section 12).
//
// The metrics registry (metrics.h) answers "how much / how fast on
// aggregate"; the tracer answers "when and where": it records complete
// span events ('X') and instant events ('i') with up to two numeric args
// (trial id, window index, beam occupancy, ...) into a fixed-capacity
// ring buffer per thread, and exports Chrome trace-event JSON that loads
// in Perfetto / chrome://tracing with one track per thread.
//
// The contract mirrors the registry's:
//
//   * Zero feedback: tracing only observes. Enabling it never changes a
//     trial's trajectory, RNG stream or aggregate -- instrumented code
//     may branch on trace state only to *record*, never to compute.
//   * Lock-light recording: each thread writes its own ring; the only
//     locks are on ring registration (once per thread) and on name
//     interning (once per site). When the ring is full the oldest event
//     is overwritten, the ring's drop count grows, and the
//     `trace.dropped_events` counter in the metrics registry ticks, so a
//     truncated timeline is visible instead of silent.
//   * Near-zero cost when disabled: every record call is one relaxed
//     atomic load and a predictable branch; no clock is read.
//
// snapshot(), reset() and write_chrome_trace() require quiescence --
// nothing instrumented may be in flight (the `run_trials(...); snapshot()`
// pattern is safe). Unlike the registry's, ring contents are not locked:
// recording stays lock-free. dropped_events() is the one live-safe read.
//
// Environment protocol: the global tracer starts enabled iff PD_TRACE_DIR
// is set (bench::Session writes <dir>/TRACE_<name>.json on exit);
// PD_TRACE_BUFFER_EVENTS overrides the per-thread ring capacity
// (default 65536 events).
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace polardraw::obs {

/// One resolved event argument (snapshot/export form).
struct TraceArgView {
  std::string name;
  double value = 0.0;
};

/// One resolved event (snapshot/export form). Timestamps are microseconds
/// since the tracer's construction epoch (steady clock).
struct TraceEventView {
  std::string name;
  char ph = 'X';       // 'X' complete span, 'i' instant, 's'/'t'/'f' flow
  double ts_us = 0.0;
  double dur_us = 0.0; // meaningful only for 'X'
  std::uint64_t flow_id = 0;  // meaningful only for 's'/'t'/'f'
  std::vector<TraceArgView> args;
};

/// One thread's ring, resolved: stable tid, display name, budget
/// accounting, and the retained events oldest-first.
struct TraceThreadSnapshot {
  int tid = 0;
  std::string thread_name;
  std::size_t capacity = 0;    // ring budget in events
  std::uint64_t recorded = 0;  // total events ever recorded on this ring
  std::uint64_t dropped = 0;   // events evicted to make room (oldest first)
  std::vector<TraceEventView> events;
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  /// The process-wide tracer. Enabled at startup when PD_TRACE_DIR is
  /// set; ring capacity from PD_TRACE_BUFFER_EVENTS.
  static Tracer& global();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on);
  /// One relaxed load; callers gate clock reads and arg capture on this.
  [[nodiscard]] bool enabled() const;

  /// Interns an event or argument name; ids are stable for the tracer's
  /// lifetime and shared by all threads. Prefer the TraceName handle.
  int name_id(const std::string& name);

  /// Names the calling thread's track in the export (e.g. "main",
  /// "pool.worker-3"). Registers the thread's ring if needed.
  void set_current_thread_name(const std::string& name);

  // Record calls are no-ops when disabled. Args with name id < 0 are
  // omitted. `complete` records an 'X' span from caller-supplied
  // timestamps so a site that already read the clock (ScopedSpan, the
  // harness stage timers) never reads it twice.
  void complete(int name, Clock::time_point begin, Clock::time_point end,
                int a0_name = -1, double a0 = 0.0,
                int a1_name = -1, double a1 = 0.0);
  void instant(int name, int a0_name = -1, double a0 = 0.0,
               int a1_name = -1, double a1 = 0.0);
  void instant_at(int name, Clock::time_point ts,
                  int a0_name = -1, double a0 = 0.0,
                  int a1_name = -1, double a1 = 0.0);

  /// Records a causal flow event (DESIGN.md section 17): Chrome phases
  /// 's' (start), 't' (step), 'f' (finish). Perfetto draws an arrow
  /// through every event sharing (name, id) in phase order, linking one
  /// report's journey across thread tracks. All polardraw flow events
  /// share one name ("report.flow") with the pipeline stage carried as an
  /// arg, so `flow_id` alone identifies the chain.
  void flow(char ph, int name, std::uint64_t flow_id,
            int a0_name = -1, double a0 = 0.0,
            int a1_name = -1, double a1 = 0.0);

  /// Per-thread ring budget. set_ring_capacity applies to rings created
  /// afterwards; reset() re-applies it to live rings (quiescence
  /// required). Values are clamped to [16, 1 << 22].
  void set_ring_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t ring_capacity() const;

  /// Resolved view of every ring, in tid order: live rings, and retired
  /// rings that recorded at least one event. Quiescence required (see
  /// file top).
  [[nodiscard]] std::vector<TraceThreadSnapshot> snapshot() const;
  /// Total events evicted across all rings since the last reset(). Unlike
  /// snapshot(), safe to call while recording is in flight (the per-ring
  /// counters are relaxed atomics) -- statusz reads this live.
  [[nodiscard]] std::uint64_t dropped_events() const;
  /// Clears all rings and drop counts; interned names and thread names
  /// survive. Quiescence required.
  void reset();

  /// Writes the Chrome trace-event JSON document: thread_name metadata
  /// ('M') events plus every retained event, loadable in Perfetto and
  /// parseable by tools/benchjson. Quiescence required.
  void write_chrome_trace(std::ostream& os) const;

  // Implementation detail, public only so the thread-local ring holder in
  // tracer.cc can name its owning tracer.
  struct Impl;

 private:
  Tracer();  // global() is the only instance
  Impl* impl_;
};

/// Interned-name handle; cheap to copy, safe in function-local statics.
class TraceName {
 public:
  explicit TraceName(const std::string& name)
      : id_(Tracer::global().name_id(name)) {}
  [[nodiscard]] int id() const { return id_; }

 private:
  int id_;
};

// --- Causal report flows (DESIGN.md section 17) ---------------------------
//
// A sampled tag report's journey is one flow chain named "report.flow",
// keyed by the report's reader-assigned serial and annotated with the
// pipeline stage it passed through. Loading TRACE_*.json in Perfetto and
// clicking any link in the chain follows the report Gen2 slot -> reader
// report -> associator window -> server submit -> decoder commit across
// thread tracks.

/// Pipeline stage carried as the "stage" arg on report.flow events.
enum class FlowStage : int {
  kSlot = 0,    // Gen2 slot delivered a read
  kReport = 1,  // reader emitted the TagReport
  kWindow = 2,  // associator closed the observation window
  kSubmit = 3,  // server accepted the observation into a mailbox
  kCommit = 4,  // decoder committed the position
};

/// Flow sampling period: a chain is recorded iff its report serial is a
/// positive multiple of this (serial 0 = unassigned, never sampled).
/// PD_FLOW_SAMPLE overrides the default of 64.
[[nodiscard]] std::uint64_t flow_sample_period();
[[nodiscard]] bool flow_sampled(std::uint64_t serial);

/// Records one link of a sampled report chain on the calling thread's
/// track: `ph` is 's' (first link), 't' (step) or 'f' (final link).
/// No-op when tracing is disabled or `serial` is unsampled, so call
/// sites need no gating of their own.
void record_report_flow(char ph, std::uint64_t serial, FlowStage stage);

}  // namespace polardraw::obs
