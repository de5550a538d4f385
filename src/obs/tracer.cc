#include "obs/tracer.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <ostream>

#include "common/annotations.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"

namespace polardraw::obs {

namespace {

/// Every ring eviction also ticks this registry counter, so a truncated
/// timeline shows up in the BENCH_*.json export next to the trace file.
const Counter& dropped_counter() {
  static const Counter c("trace.dropped_events");
  return c;
}

/// Compact on-ring event record; names and arg names are interned ids.
struct EventRec {
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = -1;  // -1 => instant or flow
  std::int32_t name = -1;
  std::int32_t a0_name = -1;
  std::int32_t a1_name = -1;
  double a0 = 0.0;
  double a1 = 0.0;
  std::uint64_t flow_id = 0;  // meaningful only when flow_ph != 0
  char flow_ph = 0;           // 0 = not a flow event; else 's'/'t'/'f'
};

/// One thread's fixed-capacity ring. Only the owning thread writes;
/// readers hold the tracer mutex after a quiescence handshake. The buffer
/// is reserved on the first recorded event, so a thread that only names
/// its track costs no event storage.
struct Ring {
  explicit Ring(std::size_t cap) : capacity(cap) {}

  void reset(std::size_t cap) {
    buf.clear();
    buf.shrink_to_fit();
    capacity = cap;
    next = 0;
    recorded = 0;
    dropped = 0;
  }

  void push(const EventRec& e) {
    recorded.store(recorded.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
    if (buf.size() < capacity) {
      if (buf.empty()) buf.reserve(capacity);
      buf.push_back(e);
      return;
    }
    // Full: overwrite the oldest retained event. `next` is both the write
    // cursor and the start of the retained window, so steady state never
    // reallocates.
    buf[next] = e;
    next = next + 1 == capacity ? 0 : next + 1;
    dropped.store(dropped.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
    dropped_counter().add();
  }

  std::vector<EventRec> buf;
  std::size_t capacity;
  std::size_t next = 0;  // oldest retained event once the ring is full
  // Relaxed atomics (owner-thread written) so dropped_events() can read
  // them while recording is in flight -- the statusz path needs live drop
  // counts without the quiescence handshake snapshot() demands.
  std::atomic<std::uint64_t> recorded{0};
  std::atomic<std::uint64_t> dropped{0};
  int tid = 0;
  std::string thread_name;
};

std::size_t clamp_capacity(std::size_t cap) {
  return std::clamp<std::size_t>(cap, 16, std::size_t{1} << 22);
}

std::size_t capacity_from_env() {
  if (const char* env = std::getenv("PD_TRACE_BUFFER_EVENTS")) {
    const long v = std::atol(env);
    if (v > 0) return clamp_capacity(static_cast<std::size_t>(v));
  }
  return 65536;
}

}  // namespace

struct Tracer::Impl {
  mutable pd::Mutex mu;
  std::atomic<bool> enabled{false};
  // epoch is deliberately outside the capability: the hot recording path
  // reads it lock-free, and reset() (the only writer after construction)
  // runs under the documented quiescence handshake -- no recording threads.
  Clock::time_point epoch = Clock::now();
  std::size_t ring_capacity PD_GUARDED_BY(mu) = 65536;

  // Name interning (each site interns once).
  std::map<std::string, int> name_ids PD_GUARDED_BY(mu);
  std::vector<std::string> names PD_GUARDED_BY(mu);

  // Live per-thread rings plus the retained rings of exited threads. The
  // containers are guarded; ring contents are owner-thread data readable
  // under mu only after the quiescence handshake (see tracer.h).
  std::vector<Ring*> live PD_GUARDED_BY(mu);
  std::vector<std::unique_ptr<Ring>> retired PD_GUARDED_BY(mu);
  int next_tid PD_GUARDED_BY(mu) = 0;

  Ring& local_ring();
  /// Keeps an exited thread's ring for export, unless it never recorded
  /// an event (pool workers name their track even with tracing off).
  void retire(std::unique_ptr<Ring> r) {
    pd::MutexLock lock(mu);
    live.erase(std::remove(live.begin(), live.end(), r.get()), live.end());
    if (r->recorded.load(std::memory_order_relaxed) > 0) {
      retired.push_back(std::move(r));
    }
  }
};

namespace {

/// TLS holder: owns this thread's ring and moves it into the retired list
/// at thread exit so events outlive pool workers.
struct TlsRing {
  Tracer::Impl* owner = nullptr;
  std::unique_ptr<Ring> ring;
  ~TlsRing() {
    if (ring != nullptr) owner->retire(std::move(ring));
  }
};

thread_local TlsRing tls_ring;

}  // namespace

Ring& Tracer::Impl::local_ring() {
  if (tls_ring.ring == nullptr) {
    std::unique_ptr<Ring> fresh;
    {
      pd::MutexLock lock(mu);
      fresh = std::make_unique<Ring>(ring_capacity);
      fresh->tid = ++next_tid;
      fresh->thread_name = "thread-" + std::to_string(fresh->tid);
      live.push_back(fresh.get());
    }
    tls_ring.owner = this;
    tls_ring.ring = std::move(fresh);
  }
  return *tls_ring.ring;
}

Tracer::Tracer() : impl_(new Impl) {}

// Like the metrics registry, the global tracer is immortal so worker
// threads exiting at process teardown can always retire their rings.
Tracer& Tracer::global() {
  static Tracer* g = [] {
    auto* t = new Tracer();
    t->set_ring_capacity(capacity_from_env());
    if (std::getenv("PD_TRACE_DIR") != nullptr) t->set_enabled(true);
    return t;
  }();
  return *g;
}

void Tracer::set_enabled(bool on) {
  impl_->enabled.store(on, std::memory_order_relaxed);
}

bool Tracer::enabled() const {
  return impl_->enabled.load(std::memory_order_relaxed);
}

int Tracer::name_id(const std::string& name) {
  pd::MutexLock lock(impl_->mu);
  const auto it = impl_->name_ids.find(name);
  if (it != impl_->name_ids.end()) return it->second;
  const int id = static_cast<int>(impl_->names.size());
  impl_->name_ids.emplace(name, id);
  impl_->names.push_back(name);
  return id;
}

void Tracer::set_current_thread_name(const std::string& name) {
  Ring& r = impl_->local_ring();
  pd::MutexLock lock(impl_->mu);
  r.thread_name = name;
}

void Tracer::complete(int name, Clock::time_point begin, Clock::time_point end,
                      int a0_name, double a0, int a1_name, double a1) {
  if (!enabled() || name < 0) return;
  EventRec e;
  e.ts_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                begin - impl_->epoch)
                .count();
  e.dur_ns = std::max<std::int64_t>(
      0, std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
             .count());
  e.name = name;
  e.a0_name = a0_name;
  e.a0 = a0;
  e.a1_name = a1_name;
  e.a1 = a1;
  impl_->local_ring().push(e);
}

void Tracer::instant(int name, int a0_name, double a0, int a1_name,
                     double a1) {
  if (!enabled()) return;  // skip the clock read entirely when disabled
  instant_at(name, Clock::now(), a0_name, a0, a1_name, a1);
}

void Tracer::instant_at(int name, Clock::time_point ts, int a0_name, double a0,
                        int a1_name, double a1) {
  if (!enabled() || name < 0) return;
  EventRec e;
  e.ts_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(ts - impl_->epoch)
          .count();
  e.dur_ns = -1;
  e.name = name;
  e.a0_name = a0_name;
  e.a0 = a0;
  e.a1_name = a1_name;
  e.a1 = a1;
  impl_->local_ring().push(e);
}

void Tracer::flow(char ph, int name, std::uint64_t flow_id, int a0_name,
                  double a0, int a1_name, double a1) {
  if (!enabled() || name < 0) return;  // skip the clock read when disabled
  if (ph != 's' && ph != 't' && ph != 'f') return;
  EventRec e;
  e.ts_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - impl_->epoch)
                .count();
  e.dur_ns = -1;
  e.name = name;
  e.a0_name = a0_name;
  e.a0 = a0;
  e.a1_name = a1_name;
  e.a1 = a1;
  e.flow_id = flow_id;
  e.flow_ph = ph;
  impl_->local_ring().push(e);
}

void Tracer::set_ring_capacity(std::size_t capacity) {
  pd::MutexLock lock(impl_->mu);
  impl_->ring_capacity = clamp_capacity(capacity);
}

std::size_t Tracer::ring_capacity() const {
  pd::MutexLock lock(impl_->mu);
  return impl_->ring_capacity;
}

std::vector<TraceThreadSnapshot> Tracer::snapshot() const {
  pd::MutexLock lock(impl_->mu);
  std::vector<const Ring*> rings;
  for (const auto& r : impl_->retired) rings.push_back(r.get());
  for (const Ring* r : impl_->live) rings.push_back(r);
  std::sort(rings.begin(), rings.end(),
            [](const Ring* a, const Ring* b) { return a->tid < b->tid; });

  const auto resolve = [&](std::int32_t id) -> std::string {
    return id >= 0 && static_cast<std::size_t>(id) < impl_->names.size()
               ? impl_->names[static_cast<std::size_t>(id)]
               : std::string();
  };

  std::vector<TraceThreadSnapshot> out;
  out.reserve(rings.size());
  for (const Ring* r : rings) {
    TraceThreadSnapshot ts;
    ts.tid = r->tid;
    ts.thread_name = r->thread_name;
    ts.capacity = r->capacity;
    ts.recorded = r->recorded.load(std::memory_order_relaxed);
    ts.dropped = r->dropped.load(std::memory_order_relaxed);
    ts.events.reserve(r->buf.size());
    const std::size_t n = r->buf.size();
    const std::size_t start = n < r->capacity ? 0 : r->next;
    for (std::size_t i = 0; i < n; ++i) {
      const EventRec& e = r->buf[(start + i) % n];
      TraceEventView v;
      v.name = resolve(e.name);
      v.ph = e.flow_ph != 0 ? e.flow_ph : (e.dur_ns < 0 ? 'i' : 'X');
      v.flow_id = e.flow_id;
      v.ts_us = static_cast<double>(e.ts_ns) / 1e3;
      v.dur_us = e.dur_ns < 0 ? 0.0 : static_cast<double>(e.dur_ns) / 1e3;
      if (e.a0_name >= 0) v.args.push_back({resolve(e.a0_name), e.a0});
      if (e.a1_name >= 0) v.args.push_back({resolve(e.a1_name), e.a1});
      ts.events.push_back(std::move(v));
    }
    out.push_back(std::move(ts));
  }
  return out;
}

std::uint64_t Tracer::dropped_events() const {
  pd::MutexLock lock(impl_->mu);
  std::uint64_t total = 0;
  for (const auto& r : impl_->retired) {
    total += r->dropped.load(std::memory_order_relaxed);
  }
  for (const Ring* r : impl_->live) {
    total += r->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

void Tracer::reset() {
  pd::MutexLock lock(impl_->mu);
  impl_->retired.clear();
  for (Ring* r : impl_->live) r->reset(impl_->ring_capacity);
  impl_->epoch = Clock::now();
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  const auto threads = snapshot();
  std::uint64_t total_dropped = 0;
  std::uint64_t total_recorded = 0;
  for (const auto& t : threads) {
    total_dropped += t.dropped;
    total_recorded += t.recorded;
  }

  JsonWriter w(os);
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("otherData");
  w.begin_object();
  w.kv("recorded_events", total_recorded);
  w.kv("dropped_events", total_dropped);
  w.kv("ring_capacity",
       static_cast<std::uint64_t>(threads.empty() ? ring_capacity()
                                                  : threads[0].capacity));
  w.end_object();
  w.key("traceEvents");
  w.begin_array();
  for (const auto& t : threads) {
    w.begin_object();
    w.kv("name", "thread_name");
    w.kv("ph", "M");
    w.kv("ts", 0.0);
    w.kv("pid", 1);
    w.kv("tid", t.tid);
    w.key("args");
    w.begin_object();
    w.kv("name", t.thread_name);
    w.end_object();
    w.end_object();
    for (const auto& e : t.events) {
      w.begin_object();
      w.kv("name", e.name);
      w.kv("ph", std::string_view(&e.ph, 1));
      w.kv("ts", e.ts_us);
      if (e.ph == 'X') w.kv("dur", e.dur_us);
      if (e.ph == 'i') w.kv("s", "t");  // thread-scoped instant
      if (e.ph == 's' || e.ph == 't' || e.ph == 'f') {
        // Flow chains match on (cat, name, id); benchjson pins this shape.
        w.kv("cat", "flow");
        w.kv("id", e.flow_id);
      }
      w.kv("pid", 1);
      w.kv("tid", t.tid);
      if (!e.args.empty()) {
        w.key("args");
        w.begin_object();
        for (const auto& a : e.args) w.kv(a.name, a.value);
        w.end_object();
      }
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

std::uint64_t flow_sample_period() {
  static const std::uint64_t period = [] {
    if (const char* env = std::getenv("PD_FLOW_SAMPLE")) {
      const long v = std::atol(env);
      if (v > 0) return static_cast<std::uint64_t>(v);
    }
    return std::uint64_t{64};
  }();
  return period;
}

bool flow_sampled(std::uint64_t serial) {
  return serial != 0 && serial % flow_sample_period() == 0;
}

void record_report_flow(char ph, std::uint64_t serial, FlowStage stage) {
  Tracer& t = Tracer::global();
  if (!t.enabled() || !flow_sampled(serial)) return;
  static const TraceName flow_name("report.flow");
  static const TraceName stage_arg("stage");
  static const TraceName serial_arg("serial");
  t.flow(ph, flow_name.id(), serial, stage_arg.id(),
         static_cast<double>(static_cast<int>(stage)), serial_arg.id(),
         static_cast<double>(serial));
}

}  // namespace polardraw::obs
