#include "server/session_server.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "core/rotation_tracker.h"
#include "obs/json_writer.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace polardraw::server {

namespace {

/// Shared bucket layout for the push-to-commit histogram and the rolling
/// SLO window: log-spaced, 6 per decade, 1 ms .. 10 s. Finer than the
/// 1-2-5 default ladder so interpolated p50/p99 land within ~1.5x
/// resolution of the true value.
const std::vector<double>& latency_bounds_s() {
  static const std::vector<double> bounds =
      obs::log_spaced_bounds(1e-3, 10.0, 6);
  return bounds;
}

}  // namespace

SessionServer::SessionServer(const core::PolarDrawConfig& cfg, Vec2 a1,
                             Vec2 a2, double antenna_z,
                             SessionServerConfig server_cfg)
    : cfg_(cfg),
      a1_(a1),
      a2_(a2),
      antenna_z_(antenna_z),
      field_(std::make_shared<const core::PhaseField>(cfg, a1, a2, antenna_z)),
      server_cfg_(server_cfg),
      pool_(server_cfg.n_workers),
      rolling_latency_(server_cfg.slo_window_s, server_cfg.slo_step_s,
                       latency_bounds_s()) {}

void SessionServer::open(SessionId id, const Vec2* initial_hint, double t_s) {
  static const obs::Counter opened_counter("server.sessions_opened");
  std::unique_ptr<Session>& s = sessions_[id];
  s = std::make_unique<Session>(cfg_, a1_, a2_, antenna_z_,
                                server_cfg_.stream, field_, initial_hint);
  opened_counter.add(1);
  auto& lg = obs::Logger::global();
  if (lg.enabled()) {
    bool hinted = false;
    {
      pd::MutexLock lock(s->mu);
      hinted = s->decoder.seeded();  // a finite hint seeds at once
    }
    lg.log(obs::LogLevel::kInfo, t_s, "server.session_open",
           [&](obs::JsonWriter& w) {
             w.kv("session", id);
             w.kv("hinted", hinted);
           });
  }
}

bool SessionServer::submit(SessionId id, const core::TrackObservation& obs,
                           std::optional<double> t_s, std::uint64_t flow_id) {
  static const obs::Counter obs_counter("server.observations");
  static const obs::Counter nonfinite_t_counter("server.nonfinite_timestamps");
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  Session& s = *it->second;
  // A non-finite time would poison the rolling window and statusz; it is
  // derived below as if none had been given.
  double sim_t_s = t_s.value_or(std::numeric_limits<double>::quiet_NaN());
  if (t_s && !std::isfinite(sim_t_s)) nonfinite_t_counter.add(1);
  // polarlint-allow(R7): push-to-commit latency measurement only; the
  // timestamp never feeds the decode.
  const auto now = Clock::now();
  std::size_t depth = 0;
  bool log_backpressure = false;
  {
    pd::MutexLock lock(s.mu);
    // Derived sim time: submit ordinal x window length -- exact for
    // gap-free streams, monotone always, so rolling windows stay sane for
    // drivers that give no timestamp.
    if (!std::isfinite(sim_t_s)) {
      sim_t_s = static_cast<double>(s.submitted) * cfg_.window_s;
    }
    s.mailbox.push_back(obs);
    s.pending.push_back({now, sim_t_s, flow_id});
    ++s.submitted;
    depth = s.mailbox.size();
    // Log the crossing once per episode; a drain re-arms it.
    log_backpressure =
        depth > server_cfg_.backpressure_depth && !s.backpressure_logged;
    if (log_backpressure) s.backpressure_logged = true;
  }
  obs_counter.add(1);
  obs::record_report_flow('t', flow_id, obs::FlowStage::kSubmit);
  auto& lg = obs::Logger::global();
  if (log_backpressure && lg.enabled()) {
    lg.log(obs::LogLevel::kWarn, sim_t_s, "server.backpressure",
           [&](obs::JsonWriter& w) {
             w.kv("session", id);
             w.kv("mailbox_depth", static_cast<std::uint64_t>(depth));
             w.kv("threshold", static_cast<std::uint64_t>(
                                   server_cfg_.backpressure_depth));
           });
  }
  return true;
}

std::size_t SessionServer::pump() {
  static const obs::Counter commit_counter("server.commits");
  static const obs::Histogram latency_hist("server.push_to_commit_s",
                                           latency_bounds_s());
  static const obs::Gauge mailbox_gauge("server.mailbox_depth_max");
  static const obs::Gauge lag_gauge("server.commit_lag_max");

  // Id-ordered list of sessions with queued work; the drain itself is
  // order-free (sessions are independent), the ordering just keeps the
  // schedule reproducible for tracing.
  std::vector<Session*> active;
  active.reserve(sessions_.size());
  for (auto& [id, s] : sessions_) {
    pd::MutexLock lock(s->mu);
    if (!s->mailbox.empty()) active.push_back(s.get());
  }

  std::atomic<std::size_t> total{0};
  pool_.parallel_for(active.size(), [&](std::size_t i) {
    Session& s = *active[i];
    // Hold the session mutex for the whole drain: a submit() or a reader
    // landing mid-drain waits a moment instead of racing the queue.
    pd::MutexLock lock(s.mu);
    mailbox_gauge.set_max(static_cast<double>(s.mailbox.size()));
    const std::size_t base = s.committed.size();
    const std::size_t n = s.drain_mailbox();
    if (n > 0) {
      // polarlint-allow(R7): measurement only -- stamps the commit for the
      // push_to_commit_s histogram, never feeds the decode.
      const auto now = Clock::now();
      // The seed root has no originating window; every other position
      // consumes the oldest pending observation (see Session::pending).
      const std::size_t seed_root = s.decoder.seed_root_position();
      for (std::size_t p = base; p < base + n; ++p) {
        if (p == seed_root) continue;
        const Pending& e = s.pending.front();
        const double latency =
            std::chrono::duration<double>(now - e.stamp).count();
        latency_hist.observe(latency);
        s.latency_stash.emplace_back(e.t_s, latency);
        obs::record_report_flow('f', e.flow_id, obs::FlowStage::kCommit);
        s.pending.pop_front();
      }
      total.fetch_add(n, std::memory_order_relaxed);
    }
    lag_gauge.set_max(static_cast<double>(s.decoder.commit_lag()));
    s.backpressure_logged = false;
  });

  // Feed the rolling SLO window on the calling thread, in session-id
  // order (`active` is id-ordered), so the window contents are a pure
  // function of the observation streams -- not of worker scheduling.
  {
    pd::MutexLock status_lock(status_mu_);
    for (Session* sp : active) {
      std::vector<std::pair<double, double>> stash;
      {
        pd::MutexLock lock(sp->mu);
        stash.swap(sp->latency_stash);
      }
      for (const auto& [t_s, latency] : stash) {
        rolling_latency_.observe(t_s, latency);
      }
    }
  }

  const std::size_t committed = total.load(std::memory_order_relaxed);
  commit_counter.add(committed);
  return committed;
}

std::size_t SessionServer::ingest(const std::vector<core::PenEvent>& events,
                                  std::vector<ClosedSession>* closed) {
  std::size_t submitted = 0;
  for (const core::PenEvent& ev : events) {
    switch (ev.type) {
      case core::PenEventType::kOpen:
        open(ev.session_id, nullptr, ev.t_s);
        break;
      case core::PenEventType::kObservation:
        if (submit(ev.session_id, ev.obs, ev.t_s, ev.flow_id)) ++submitted;
        break;
      case core::PenEventType::kClose: {
        std::vector<Vec2> traj = close(ev.session_id);
        if (closed != nullptr) {
          // Eq. 10 on the finished trace, as PolarDraw::track after its
          // decode.
          closed->push_back(ClosedSession{
              ev.session_id, ev.epc,
              core::correct_initial_azimuth(cfg_, std::move(traj),
                                            ev.azimuth_correction_rad)});
        }
        break;
      }
    }
  }
  return submitted;
}

std::vector<Vec2> SessionServer::committed(SessionId id) const {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return {};
  Session& s = *it->second;
  pd::MutexLock lock(s.mu);
  return s.committed;
}

std::vector<Vec2> SessionServer::close(SessionId id) {
  static const obs::Counter closed_counter("server.sessions_closed");
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return {};
  Session& s = *it->second;
  std::vector<Vec2> traj;
  double last_t_s = 0.0;
  {
    pd::MutexLock lock(s.mu);
    // Drain anything submitted since the last pump(): the trajectory is a
    // function of the session's full observation stream, so observations
    // still sitting in the mailbox must decode before the tail commits --
    // otherwise the result would depend on pump timing.
    s.drain_mailbox();
    s.decoder.finish(s.committed);
    last_t_s = s.pending.empty() ? 0.0 : s.pending.back().t_s;
    traj = std::move(s.committed);
  }
  sessions_.erase(it);
  closed_counter.add(1);
  auto& lg = obs::Logger::global();
  if (lg.enabled()) {
    lg.log(obs::LogLevel::kInfo, last_t_s, "server.session_close",
           [&](obs::JsonWriter& w) {
             w.kv("session", id);
             w.kv("positions", static_cast<std::uint64_t>(traj.size()));
           });
  }
  return traj;
}

SessionServer::LiveStatus SessionServer::live_status() const {
  LiveStatus live;
  live.sessions.reserve(sessions_.size());
  for (const auto& [id, s] : sessions_) {
    pd::MutexLock lock(s->mu);
    SessionStatus st;
    st.id = id;
    st.seeded = s->decoder.seeded();
    st.mailbox_depth = s->mailbox.size();
    st.submitted = s->submitted;
    st.committed = s->committed.size();
    st.commit_lag = s->decoder.commit_lag();
    st.last_t_s = s->pending.empty() ? 0.0 : s->pending.back().t_s;
    // Global sim "now": the newest observation across sessions -- the
    // time base starvation is judged against.
    live.now_t_s = std::max(live.now_t_s, st.last_t_s);
    live.sessions.push_back(st);
  }
  for (SessionStatus& st : live.sessions) {
    // A session is "lagging" when its decode backlog exceeds the fixed
    // lag the decoder is entitled to hold.
    st.lagging = st.commit_lag > server_cfg_.stream.lag_windows;
    st.starved = live.now_t_s - st.last_t_s > server_cfg_.starved_after_s;
    st.backpressured = st.mailbox_depth > server_cfg_.backpressure_depth;
  }
  return live;
}

std::string SessionServer::status() const {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "polardraw.statusz.v1");

  const LiveStatus live = live_status();
  w.kv("t_s", live.now_t_s);
  w.kv("session_count", static_cast<std::uint64_t>(sessions_.size()));
  w.kv("n_workers", pool_.size());

  w.key("sessions");
  w.begin_array();
  for (const SessionStatus& st : live.sessions) {
    w.begin_object();
    w.kv("id", st.id);
    w.kv("seeded", st.seeded);
    w.kv("mailbox_depth", static_cast<std::uint64_t>(st.mailbox_depth));
    w.kv("submitted", static_cast<std::uint64_t>(st.submitted));
    w.kv("committed", static_cast<std::uint64_t>(st.committed));
    w.kv("commit_lag", static_cast<std::uint64_t>(st.commit_lag));
    w.kv("last_t_s", st.last_t_s);
    w.kv("lagging", st.lagging);
    w.kv("starved", st.starved);
    w.kv("backpressured", st.backpressured);
    w.end_object();
  }
  w.end_array();

  {
    pd::MutexLock lock(status_mu_);
    const obs::HistogramSnapshot roll = rolling_latency_.stats();
    w.key("rolling");
    w.begin_object();
    w.kv("metric", "server.push_to_commit_s");
    w.kv("window_s", rolling_latency_.window_s());
    w.kv("count", roll.count);
    w.kv("p50_s", roll.percentile(50.0));
    w.kv("p99_s", roll.percentile(99.0));
    w.kv("mean_s", roll.mean());
    w.kv("max_s", roll.max);
    w.end_object();
  }

  // Registry totals: snapshot() locks each shard, so it is safe mid-flight.
  {
    const obs::Snapshot snap = obs::Registry::global().snapshot();
    w.key("registry");
    w.begin_object();
    w.key("counters");
    w.begin_object();
    for (const auto& [name, v] : snap.counters) w.kv(name, v);
    w.end_object();
    w.end_object();
  }

  w.key("trace");
  w.begin_object();
  w.kv("dropped_events", obs::Tracer::global().dropped_events());
  w.end_object();

  const obs::Logger& lg = obs::Logger::global();
  w.key("log");
  w.begin_object();
  w.kv("emitted", lg.emitted_total());
  w.end_object();

  w.end_object();
  os << "\n";
  return os.str();
}

HealthReport SessionServer::healthz() const {
  HealthReport report;
  double rolling_p99 = 0.0;
  std::uint64_t rolling_count = 0;
  {
    pd::MutexLock lock(status_mu_);
    const obs::HistogramSnapshot roll = rolling_latency_.stats();
    rolling_p99 = roll.percentile(99.0);
    rolling_count = roll.count;
  }
  if (rolling_count > 0 && rolling_p99 > server_cfg_.healthz_p99_s) {
    report.ok = false;
    report.reasons.push_back("rolling_p99_above_threshold");
  }
  bool backpressured = false;
  bool starved = false;
  for (const SessionStatus& st : live_status().sessions) {
    backpressured = backpressured || st.backpressured;
    starved = starved || st.starved;
  }
  if (backpressured) {
    report.ok = false;
    report.reasons.push_back("session_backpressured");
  }
  if (starved) {
    report.ok = false;
    report.reasons.push_back("session_starved");
  }
  return report;
}

}  // namespace polardraw::server
