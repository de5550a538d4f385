// Scoped-span timers over the metrics registry and the event tracer.
//
// A span is a named duration: construct a ScopedSpan over a
// function-local static site and the block's wall time lands in that
// site's histogram on scope exit -- and, when the tracer is enabled, as a
// Chrome 'X' complete event on the calling thread's track. Both sinks
// share a single steady_clock read per endpoint. When both subsystems are
// disabled the constructor takes two relaxed loads and no clock is read,
// so instrumentation can stay compiled into hot paths (polarbench's
// obs.trace_overhead_fraction measures what it costs when on).
//
//   void preprocess(...) {
//     static const obs::SpanSite site("core.preprocess");
//     const obs::ScopedSpan span(site);
//     ...
//   }
//
// Trace-only args (recorded iff tracing is active; never read back):
//
//   static const obs::TraceName arg_window("window");
//   span.arg(arg_window, static_cast<double>(i));
#pragma once

#include <chrono>

#include "obs/metrics.h"
#include "obs/tracer.h"

namespace polardraw::obs {

/// One instrumentation site: a duration histogram in the metrics registry
/// plus an interned tracer event name, so a single ScopedSpan feeds both.
class SpanSite {
 public:
  explicit SpanSite(const std::string& name) : hist_(name), trace_(name) {}
  [[nodiscard]] const Histogram& histogram() const { return hist_; }
  [[nodiscard]] const TraceName& trace_name() const { return trace_; }

 private:
  Histogram hist_;
  TraceName trace_;
};

class ScopedSpan {
 public:
  /// Histogram + paired trace event when the respective sink is enabled.
  explicit ScopedSpan(const SpanSite& site)
      : hist_(&site.histogram()),
        trace_id_(Tracer::global().enabled() ? site.trace_name().id() : -1),
        metrics_on_(Registry::global().enabled()) {
    if (metrics_on_ || trace_id_ >= 0) start_ = Tracer::Clock::now();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches a numeric arg to the trace event (two slots; extra calls
  /// are dropped). No-op unless tracing was active at construction.
  void arg(const TraceName& name, double value) {
    if (trace_id_ < 0) return;
    if (a0_name_ < 0) {
      a0_name_ = name.id();
      a0_ = value;
    } else if (a1_name_ < 0) {
      a1_name_ = name.id();
      a1_ = value;
    }
  }

  ~ScopedSpan() {
    if (!metrics_on_ && trace_id_ < 0) return;
    // One clock read shared by the histogram and the trace event.
    const auto end = Tracer::Clock::now();
    if (metrics_on_) {
      hist_->observe(std::chrono::duration<double>(end - start_).count());
    }
    if (trace_id_ >= 0) {
      Tracer::global().complete(trace_id_, start_, end, a0_name_, a0_,
                                a1_name_, a1_);
    }
  }

 private:
  const Histogram* hist_;
  int trace_id_ = -1;
  bool metrics_on_;
  int a0_name_ = -1;
  int a1_name_ = -1;
  double a0_ = 0.0;
  double a1_ = 0.0;
  Tracer::Clock::time_point start_;
};

}  // namespace polardraw::obs
