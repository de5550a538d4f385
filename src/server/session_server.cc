#include "server/session_server.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <utility>

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

bool is_finite(const core::TrackObservation& o) {
  return std::isfinite(o.distance.lower_m) &&
         std::isfinite(o.distance.upper_m) &&
         std::isfinite(o.distance.dtheta21) &&
         std::isfinite(o.direction.direction.x) &&
         std::isfinite(o.direction.direction.y);
}

/// The window MotionFrontEnd emits when it has no phase: idle direction,
/// displacement bounded only by the speed limit.
core::TrackObservation unobserved_window(const core::PolarDrawConfig& cfg) {
  core::TrackObservation o;
  o.distance.upper_m = cfg.vmax_mps * cfg.window_s;
  return o;
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
  sessions_[id] = std::make_unique<Session>(cfg_, a1_, a2_, antenna_z_,
                                            server_cfg_.stream, field_,
                                            initial_hint);
  opened_counter.add(1);
  auto& lg = obs::Logger::global();
  if (lg.enabled()) {
    lg.log(obs::LogLevel::kInfo, t_s, "server.session_open",
           [&](obs::JsonWriter& w) {
             w.kv("session", id);
             w.kv("hinted", initial_hint != nullptr);
           });
  }
}

bool SessionServer::submit(SessionId id, const core::TrackObservation& obs,
                           double t_s, std::uint64_t flow_id) {
  static const obs::Counter obs_counter("server.observations");
  static const obs::Counter nonfinite_counter("server.nonfinite_observations");
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  Session& s = *it->second;
  const bool finite = is_finite(obs);
  if (!finite) nonfinite_counter.add(1);
  // polarlint-allow(R7): push-to-commit latency measurement only; the
  // timestamp never feeds the decode.
  const auto now = Clock::now();
  std::size_t depth = 0;
  {
    pd::MutexLock lock(s.mu);
    s.mailbox.push_back(finite ? obs : unobserved_window(cfg_));
    s.stamps.push_back(now);
    s.sim_times.push_back(t_s);
    s.flow_ids.push_back(flow_id);
    depth = s.mailbox.size();
    s.stat_mailbox_depth.store(depth, std::memory_order_relaxed);
    s.stat_submitted.store(s.stamps.size(), std::memory_order_relaxed);
    s.stat_last_t_s.store(t_s, std::memory_order_relaxed);
  }
  obs_counter.add(1);
  obs::record_report_flow('t', flow_id, obs::FlowStage::kSubmit);
  if (depth > server_cfg_.backpressure_depth &&
      !s.stat_backpressure_logged.exchange(true, std::memory_order_relaxed)) {
    // Log the crossing once per episode; pump() re-arms after a drain.
    auto& lg = obs::Logger::global();
    if (lg.enabled()) {
      lg.log(obs::LogLevel::kWarn, t_s, "server.backpressure",
             [&](obs::JsonWriter& w) {
               w.kv("session", id);
               w.kv("mailbox_depth", static_cast<std::uint64_t>(depth));
               w.kv("threshold", static_cast<std::uint64_t>(
                                     server_cfg_.backpressure_depth));
             });
    }
  }
  return true;
}

bool SessionServer::submit(SessionId id, const core::TrackObservation& obs) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  // Derived sim time: submit ordinal x window length -- exact for
  // gap-free streams, monotone always, so rolling windows stay sane for
  // drivers that predate the timestamped overload.
  const double t_s =
      static_cast<double>(
          it->second->stat_submitted.load(std::memory_order_relaxed)) *
      cfg_.window_s;
  return submit(id, obs, t_s, 0);
}

bool SessionServer::accumulate_azimuth_correction(SessionId id,
                                                 double delta_rad) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  Session& s = *it->second;
  pd::MutexLock lock(s.mu);
  s.decoder.accumulate_azimuth_correction(delta_rad);
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
    // Hold the session mutex for the whole drain: a submit() landing
    // mid-drain waits a moment instead of racing the stamps vector.
    pd::MutexLock lock(s.mu);
    mailbox_gauge.set_max(static_cast<double>(s.mailbox.size()));
    for (const core::TrackObservation& o : s.mailbox) s.decoder.push(o);
    s.mailbox.clear();
    const std::size_t base = s.committed.size();
    const std::size_t n = s.decoder.poll(s.committed);
    if (n > 0) {
      // polarlint-allow(R7): measurement only -- stamps the commit for the
      // push_to_commit_s histogram, never feeds the decode.
      const auto now = Clock::now();
      // Position-to-observation mapping: the seed root (at the phaseless-
      // prefix length for mid-stream seeds, 0 otherwise) has no originating
      // window; backfilled prefix positions before it were created by the
      // same-index observation, positions past it by the preceding one.
      const std::size_t seed_root = s.decoder.seed_root_position();
      for (std::size_t p = base; p < base + n; ++p) {
        if (p == seed_root) continue;
        const std::size_t w = p < seed_root ? p : p - 1;
        const double latency =
            std::chrono::duration<double>(now - s.stamps[w]).count();
        latency_hist.observe(latency);
        s.latency_stash.emplace_back(s.sim_times[w], latency);
        obs::record_report_flow('f', s.flow_ids[w], obs::FlowStage::kCommit);
      }
      total.fetch_add(n, std::memory_order_relaxed);
    }
    lag_gauge.set_max(static_cast<double>(s.decoder.commit_lag()));
    // Refresh the statusz mirror and re-arm the backpressure edge log.
    s.stat_mailbox_depth.store(0, std::memory_order_relaxed);
    s.stat_committed.store(s.committed.size(), std::memory_order_relaxed);
    s.stat_commit_lag.store(s.decoder.commit_lag(),
                            std::memory_order_relaxed);
    s.stat_seeded.store(s.decoder.seeded(), std::memory_order_relaxed);
    s.stat_backpressure_logged.store(false, std::memory_order_relaxed);
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
      case core::PenEventType::kAzimuthCorrection:
        accumulate_azimuth_correction(ev.session_id, ev.azimuth_delta_rad);
        break;
      case core::PenEventType::kClose: {
        std::vector<Vec2> traj = close(ev.session_id);
        if (closed != nullptr) {
          closed->push_back(ClosedSession{ev.session_id, ev.epc,
                                          std::move(traj)});
        }
        break;
      }
    }
  }
  return submitted;
}

const std::vector<Vec2>& SessionServer::committed(SessionId id) const {
  static const std::vector<Vec2> kEmpty;
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? kEmpty : it->second->committed;
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
    for (const core::TrackObservation& o : s.mailbox) s.decoder.push(o);
    s.mailbox.clear();
    s.decoder.finish(s.committed);
    last_t_s = s.sim_times.empty() ? 0.0 : s.sim_times.back();
    // Eq. 10: undo the accumulated initial-azimuth error. A whole-trajectory
    // rotation about the centroid, so it can only run once the trace is
    // complete -- committed positions are frozen in board frame until here.
    // With no correction the trajectory is returned untouched: even a
    // zero-angle rotation perturbs low bits through the centroid round trip,
    // which would break the bit-identity contract with the batch decode.
    const double alpha_rad = s.decoder.azimuth_correction_rad();
    traj = alpha_rad == 0.0
               ? std::move(s.committed)
               : core::HmmTracker::rotate_trajectory(s.committed, alpha_rad);
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
    SessionStatus st;
    st.id = id;
    st.seeded = s->stat_seeded.load(std::memory_order_relaxed);
    st.mailbox_depth = s->stat_mailbox_depth.load(std::memory_order_relaxed);
    st.submitted = s->stat_submitted.load(std::memory_order_relaxed);
    st.committed = s->stat_committed.load(std::memory_order_relaxed);
    st.commit_lag = s->stat_commit_lag.load(std::memory_order_relaxed);
    st.last_t_s = s->stat_last_t_s.load(std::memory_order_relaxed);
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
    const obs::RollingStats roll = rolling_latency_.stats();
    w.key("rolling");
    w.begin_object();
    w.kv("metric", "server.push_to_commit_s");
    w.kv("window_s", rolling_latency_.window_s());
    w.kv("count", roll.count);
    w.kv("p50_s", roll.p50);
    w.kv("p99_s", roll.p99);
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
  w.kv("suppressed", lg.suppressed_total());
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
    const obs::RollingStats roll = rolling_latency_.stats();
    rolling_p99 = roll.p99;
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
