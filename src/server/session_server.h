// Multi-session streaming decode server (DESIGN.md section 13).
//
// Multiplexes many concurrent pens -- each an independent fixed-lag
// StreamingDecoder -- over one shared phase field and one thread pool. The
// intended driver loop is a reader frontend that calls submit() as tag
// reports arrive and pump() once per scheduling quantum: submit() only
// appends to a per-session mailbox under that session's mutex (cheap
// enough for an ingest thread), while pump() drains every non-empty
// mailbox in parallel, advancing each session's decoder and collecting its
// newly committed block-center positions.
//
// Determinism contract, pinned by tests/server/test_session_server.cc:
// each session's decode is a sequential function of its own observation
// stream; sessions share the read-only phase field and, on each worker, the
// worker's decode scratch, which carries nothing from one window to the
// next (core/streaming_decoder.h); and the obs registry merges per-thread
// shards commutatively -- so committed trajectories and metric aggregates
// are bit-identical whether pump() ran on 1 worker or 8, and identical to
// decoding each pen in isolation. Worker count changes wall-clock only.
//
// Threading rules: every per-session field is guarded by that session's
// mutex, so submit(), committed(), status() and healthz() may all run
// concurrently with pump() and with each other; the last three may wait
// while a pump worker drains the session they read. open(), close(),
// ingest() and session_count() change or size the session map that every
// call walks, so they must not race any other call. Lock order:
// status_mu_, then a session's mutex, never the reverse.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/thread_pool.h"
#include "common/vec.h"
#include "core/association.h"
#include "core/config.h"
#include "core/phase_field.h"
#include "core/streaming_decoder.h"
#include "obs/rolling.h"

namespace polardraw::server {

using SessionId = std::uint64_t;

struct SessionServerConfig {
  /// Per-session fixed-lag decoder knobs (the commit lag).
  core::StreamingConfig stream;
  /// Pool size for pump(); defaults to POLARDRAW_THREADS / hardware.
  int n_workers = ThreadPool::default_thread_count();

  // --- Live introspection (DESIGN.md section 17) ---------------------------
  /// Rolling SLO window over push-to-commit latency, in *simulation*
  /// seconds (observation timestamps, never wall clock): statusz reports
  /// p50/p99 over the trailing `slo_window_s`, quantized to `slo_step_s`.
  double slo_window_s = 10.0;
  double slo_step_s = 0.5;
  /// statusz flags a session "backpressured" (and the first submit past
  /// the threshold logs server.backpressure) when its mailbox outruns the
  /// pump by this many queued observations.
  std::size_t backpressure_depth = 256;
  /// statusz flags a session "starved" when its newest observation is
  /// this much older (sim time) than the newest across all sessions.
  double starved_after_s = 1.0;
  /// healthz turns unhealthy when the rolling p99 exceeds this (wall
  /// seconds, since push-to-commit is a wall-clock measurement) or any
  /// session is backpressured.
  double healthz_p99_s = 1.0;
};

/// healthz() verdict: explicit threshold checks, each failure named.
struct HealthReport {
  bool ok = true;
  std::vector<std::string> reasons;  // empty iff ok
};

class SessionServer {
 public:
  /// One antenna pair serves every session: the phase field is built once
  /// here and shared read-only by all decoders.
  SessionServer(const core::PolarDrawConfig& cfg, Vec2 a1, Vec2 a2,
                double antenna_z, SessionServerConfig server_cfg = {});

  /// Starts a session; `initial_hint` optionally seeds its chain. The
  /// session's decoder screens the hint: one with a non-finite coordinate
  /// counts as no hint (the session seeds from its first phase window) and
  /// is tallied in `hmm.nonfinite_hints`. The open log's `hinted` says
  /// whether the decoder seeded. Opening an id that is already open
  /// replaces the old session. `t_s` is the session's opening sim time
  /// (log/statusz annotation only).
  void open(SessionId id, const Vec2* initial_hint = nullptr,
            double t_s = 0.0);

  /// Enqueues one observation window into the session's mailbox; it is
  /// decoded at the next pump(). Returns false for an unknown session.
  /// `t_s` is the observation's simulation timestamp (drives the rolling
  /// SLO window and starvation detection; never the decode) and `flow_id`
  /// the causal flow chain it belongs to (0 = unsampled). Without `t_s`
  /// the time is derived from the session's submit ordinal and the window
  /// length, which is exact for gap-free streams; a non-finite `t_s` is
  /// derived the same way and counted in `server.nonfinite_timestamps`.
  /// The window is queued as given: the session's decoder decodes one
  /// whose distance bounds, dtheta21 or direction is not finite as the
  /// unobserved window and tallies it in `hmm.nonfinite_observations`.
  bool submit(SessionId id, const core::TrackObservation& obs,
              std::optional<double> t_s = std::nullopt,
              std::uint64_t flow_id = 0);

  /// Drains every non-empty mailbox across the pool: pushes the queued
  /// windows through each session's decoder and appends the newly frozen
  /// positions to its committed trajectory. Records per-position
  /// push-to-commit latency into the `server.push_to_commit_s` histogram.
  /// Returns the number of positions committed across all sessions.
  std::size_t pump();

  /// Copy of the positions committed so far for a session (empty for
  /// unknown ids).
  [[nodiscard]] std::vector<Vec2> committed(SessionId id) const;

  /// Drains any observations still queued in the mailbox, finishes the
  /// session's decode (committing the batch-equivalent tail), erases the
  /// session, and returns its committed trajectory -- a function of the
  /// full observation stream, independent of pump() timing, that extends
  /// every copy committed() returned. It is not rotated: Eq. 10 is applied
  /// by whoever holds the angle (ingest() for associator sessions).
  std::vector<Vec2> close(SessionId id);

  /// A session finished via an associator kClose event.
  struct ClosedSession {
    SessionId id = 0;
    std::uint32_t epc = 0;
    std::vector<Vec2> trajectory;
  };

  /// Applies a TagTrackAssociator event batch in order: kOpen -> open(),
  /// kObservation -> submit(), kClose -> close(). When `closed` is
  /// non-null, each closed trajectory is appended to it after Eq. 10 by
  /// the event's angle, through core::correct_initial_azimuth (the batch
  /// pipeline's gate: only with use_polarization and
  /// apply_rotation_correction on). This is the glue that turns an
  /// EPC-keyed report stream into per-pen decodes; call it from the
  /// control thread (open/close threading rules apply) and pump() on
  /// whatever cadence suits. Returns the number of observations submitted.
  std::size_t ingest(const std::vector<core::PenEvent>& events,
                     std::vector<ClosedSession>* closed = nullptr);

  [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }
  [[nodiscard]] int n_workers() const { return pool_.size(); }

  /// statusz: schema-stable JSON document ("polardraw.statusz.v1") with
  /// per-session state (seeded/lagging/starved/backpressured flags,
  /// mailbox depth, commit lag, committed count, last sim time), the
  /// rolling latency window (count, p50/p99/mean/max), registry counter
  /// totals, trace drop counts, and log emit count. Reads each
  /// session under its mutex, so it is safe while submit()/pump() are in
  /// flight; must not race open()/close() (see threading rules at the top).
  [[nodiscard]] std::string status() const;

  /// healthz: explicit-threshold verdict over the same live state --
  /// unhealthy when the rolling p99 exceeds healthz_p99_s, any session is
  /// backpressured, or any session is starved. Same threading rules as
  /// status().
  [[nodiscard]] HealthReport healthz() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// One session's statusz row, read under its mutex, plus the flags
  /// judged from it.
  struct SessionStatus {
    SessionId id = 0;
    bool seeded = false;
    std::size_t mailbox_depth = 0;
    std::size_t submitted = 0;
    std::size_t committed = 0;
    std::size_t commit_lag = 0;
    double last_t_s = 0.0;
    bool lagging = false;
    bool starved = false;
    bool backpressured = false;
  };
  struct LiveStatus {
    double now_t_s = 0.0;  // newest observation across sessions
    std::vector<SessionStatus> sessions;  // id order
  };
  /// The live state status() reports and healthz() judges.
  [[nodiscard]] LiveStatus live_status() const;

  /// A submitted observation's stamps, kept until its position commits.
  struct Pending {
    Clock::time_point stamp;  // submit wall time (push-to-commit latency)
    double t_s = 0.0;         // sim time (rolling window, starvation)
    std::uint64_t flow_id = 0;  // causal flow chain (0 = unsampled)
  };

  struct Session {
    Session(const core::PolarDrawConfig& cfg, Vec2 a1, Vec2 a2,
            double antenna_z, const core::StreamingConfig& scfg,
            std::shared_ptr<const core::PhaseField> field,
            const Vec2* initial_hint)
        : decoder(cfg, a1, a2, antenna_z, scfg, std::move(field),
                  initial_hint) {}

    /// Guards every field below against submit(), the readers and this
    /// session's drain racing each other.
    pd::Mutex mu;
    core::StreamingDecoder decoder PD_GUARDED_BY(mu);
    /// Observations submitted since the last drain, oldest first. The
    /// drain hands them to the decoder and frees the storage, so a burst
    /// is held only until it is decoded.
    std::vector<core::TrackObservation> mailbox PD_GUARDED_BY(mu);
    /// Stamps of the observations whose positions have not committed,
    /// oldest first (at most lag + mailbox + unseeded prefix). Relative to
    /// the decoder's seed_root_position() R, which has no originating
    /// window, position p comes from observation p for p < R (the
    /// backfilled phaseless prefix) and from observation p - 1 for p > R,
    /// so every other commit pops the front. The last submit's position is
    /// within the lag, so it is always the back.
    std::deque<Pending> pending PD_GUARDED_BY(mu);
    std::size_t submitted PD_GUARDED_BY(mu) = 0;
    /// (sim_t_s, latency_s) pairs committed by the last drain; the pump
    /// caller moves them into the rolling window afterwards in session-id
    /// order (deterministic merge).
    std::vector<std::pair<double, double>> latency_stash PD_GUARDED_BY(mu);
    std::vector<Vec2> committed PD_GUARDED_BY(mu);
    /// Set when a submit logs server.backpressure; a drain re-arms it.
    bool backpressure_logged PD_GUARDED_BY(mu) = false;

    /// Decodes the mailbox into `committed`, polling after each push so
    /// the decoder buffers no burst either, and frees the mailbox's storage
    /// (clear() would keep it). Returns the number of positions committed.
    std::size_t drain_mailbox() PD_REQUIRES(mu) {
      std::size_t n = 0;
      for (const core::TrackObservation& o : mailbox) {
        decoder.push(o);
        n += decoder.poll(committed);
      }
      std::vector<core::TrackObservation>().swap(mailbox);
      return n;
    }
  };

  core::PolarDrawConfig cfg_;
  Vec2 a1_, a2_;
  double antenna_z_;
  std::shared_ptr<const core::PhaseField> field_;
  SessionServerConfig server_cfg_;
  ThreadPool pool_;
  /// Ordered map so pump() visits sessions in id order -- iteration order
  /// (and with it every aggregate) must not depend on insertion history.
  std::map<SessionId, std::unique_ptr<Session>> sessions_;

  /// Guards the rolling SLO state; taken by the pump *caller* (after the
  /// parallel drain) and by status()/healthz() -- never on the hot
  /// submit/drain paths.
  mutable pd::Mutex status_mu_;
  obs::RollingWindow rolling_latency_ PD_GUARDED_BY(status_mu_);
};

}  // namespace polardraw::server
