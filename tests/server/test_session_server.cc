// Session-server determinism and lifecycle tests (DESIGN.md §13).
//
// The load pattern mirrors polarbench's server workloads: N synthetic
// pens from the decode testbed, reports interleaved round-robin, pump()
// called on a fixed cadence. The pinned contracts: interleaving changes nothing (each
// session decodes exactly as it would in isolation), worker count changes
// nothing (1 worker and 8 produce bit-identical trajectories and counter
// aggregates), close() flushes the batch-equivalent tail, and ingest()
// applies a kClose event's Eq. 10 angle under the batch pipeline's gate.
#include "server/session_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/decode_testbed.h"
#include "core/rotation_tracker.h"
#include "core/streaming_decoder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "rfid/reader.h"

namespace polardraw::server {
namespace {

using core::DecodeTestbed;
using core::PolarDrawConfig;
using core::decode_full_lag;
using core::make_decode_testbed;

PolarDrawConfig small_config() {
  PolarDrawConfig cfg;
  cfg.board_width_m = 0.4;
  cfg.board_height_m = 0.3;
  cfg.block_m = 0.01;
  cfg.beam_width = 150;
  return cfg;
}

/// Runs `n_pens` testbed pens through a server round-robin, pumping every
/// `pump_every` submissions, and returns each pen's closed trajectory in
/// id order.
std::vector<std::vector<Vec2>> run_load(const PolarDrawConfig& cfg,
                                        int n_pens, int n_windows,
                                        std::size_t lag, int n_workers,
                                        std::size_t pump_every) {
  std::vector<DecodeTestbed> pens;
  for (int p = 0; p < n_pens; ++p) {
    pens.push_back(
        make_decode_testbed(cfg, n_windows, static_cast<std::uint64_t>(p) + 1));
  }
  SessionServerConfig scfg;
  scfg.stream.lag_windows = lag;
  scfg.n_workers = n_workers;
  SessionServer server(cfg, pens[0].a1, pens[0].a2, pens[0].antenna_z, scfg);
  for (int p = 0; p < n_pens; ++p) {
    server.open(static_cast<SessionId>(p), &pens[static_cast<std::size_t>(p)].start);
  }
  std::size_t since_pump = 0;
  for (int w = 0; w < n_windows; ++w) {
    for (int p = 0; p < n_pens; ++p) {
      server.submit(static_cast<SessionId>(p),
                    pens[static_cast<std::size_t>(p)].obs[static_cast<std::size_t>(w)]);
      if (++since_pump == pump_every) {
        server.pump();
        since_pump = 0;
      }
    }
  }
  server.pump();
  std::vector<std::vector<Vec2>> out;
  for (int p = 0; p < n_pens; ++p) {
    out.push_back(server.close(static_cast<SessionId>(p)));
  }
  return out;
}

void expect_bit_identical(const std::vector<Vec2>& a,
                          const std::vector<Vec2>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x) << "position " << i;
    EXPECT_EQ(a[i].y, b[i].y) << "position " << i;
  }
}

TEST(SessionServer, InterleavedSessionsMatchIsolatedBatchDecode) {
  // Full lag: every session must close to exactly its batch decode even
  // though thousands of foreign windows arrived in between.
  const PolarDrawConfig cfg = small_config();
  const int kPens = 6, kWindows = 40;
  const auto trajs = run_load(cfg, kPens, kWindows, /*lag=*/kWindows + 1,
                              /*n_workers=*/4, /*pump_every=*/7);
  ASSERT_EQ(trajs.size(), static_cast<std::size_t>(kPens));
  for (int p = 0; p < kPens; ++p) {
    const auto tb =
        make_decode_testbed(cfg, kWindows, static_cast<std::uint64_t>(p) + 1);
    expect_bit_identical(
        trajs[static_cast<std::size_t>(p)],
        decode_full_lag(cfg, tb.a1, tb.a2, tb.antenna_z, tb.obs, &tb.start));
  }
}

TEST(SessionServer, WorkerCountDoesNotChangeTrajectoriesOrAggregates) {
  const PolarDrawConfig cfg = small_config();
  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(true);

  reg.reset();
  const auto one = run_load(cfg, 8, 30, /*lag=*/6, /*n_workers=*/1,
                            /*pump_every=*/5);
  const obs::Snapshot snap1 = reg.snapshot();

  reg.reset();
  const auto eight = run_load(cfg, 8, 30, /*lag=*/6, /*n_workers=*/8,
                              /*pump_every=*/5);
  const obs::Snapshot snap8 = reg.snapshot();

  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t p = 0; p < one.size(); ++p) {
    expect_bit_identical(one[p], eight[p]);
  }
  for (const char* name :
       {"server.observations", "server.commits", "server.sessions_opened",
        "server.sessions_closed", "hmm.windows", "hmm.beam_expansions",
        "hmm.beam_nodes"}) {
    EXPECT_EQ(snap1.counter(name), snap8.counter(name)) << name;
  }
  const auto* hist1 = snap1.histogram("server.push_to_commit_s");
  const auto* hist8 = snap8.histogram("server.push_to_commit_s");
  ASSERT_NE(hist1, nullptr);
  ASSERT_NE(hist8, nullptr);
  // Latency *values* are wall-clock noise, but the number of latency
  // observations is part of the deterministic commit schedule.
  EXPECT_EQ(hist1->count, hist8->count);

  reg.reset();
  reg.set_enabled(false);
}

TEST(SessionServer, CloseFlushesBatchEquivalentTail) {
  const PolarDrawConfig cfg = small_config();
  const int kWindows = 30;
  const auto tb = make_decode_testbed(cfg, kWindows, 42);
  SessionServerConfig scfg;
  scfg.stream.lag_windows = 8;
  scfg.n_workers = 2;
  SessionServer server(cfg, tb.a1, tb.a2, tb.antenna_z, scfg);
  server.open(7, &tb.start);
  for (const auto& o : tb.obs) server.submit(7, o);
  server.pump();
  // With lag 8, the last 8 positions are still pending at pump time...
  const std::size_t committed_early = server.committed(7).size();
  EXPECT_EQ(committed_early, static_cast<std::size_t>(kWindows) + 1 - 8);
  // ...and close() must deliver the full trajectory.
  const auto traj = server.close(7);
  EXPECT_EQ(traj.size(), static_cast<std::size_t>(kWindows) + 1);
  EXPECT_EQ(server.session_count(), 0u);
}

TEST(SessionServer, CloseDrainsUnpumpedMailbox) {
  // Observations still queued in the mailbox at close() time are part of
  // the stream: close() must push them through the decoder before
  // finishing, so the trajectory does not depend on pump timing. At full
  // lag the result must equal the batch decode even though only one
  // mid-stream pump ever ran.
  const PolarDrawConfig cfg = small_config();
  const int kWindows = 30;
  const auto tb = make_decode_testbed(cfg, kWindows, 11);
  SessionServerConfig scfg;
  scfg.stream.lag_windows = static_cast<std::size_t>(kWindows) + 1;
  scfg.n_workers = 2;
  SessionServer server(cfg, tb.a1, tb.a2, tb.antenna_z, scfg);
  server.open(3, &tb.start);
  for (int w = 0; w < kWindows; ++w) {
    server.submit(3, tb.obs[static_cast<std::size_t>(w)]);
    if (w == kWindows / 2) server.pump();
  }
  // No final pump: the second half of the stream is still in the mailbox.
  const auto traj = server.close(3);
  expect_bit_identical(
      traj,
      decode_full_lag(cfg, tb.a1, tb.a2, tb.antenna_z, tb.obs, &tb.start));
}

/// Closes `id` through ingest() with a kClose event carrying `angle_rad`,
/// as the associator emits it, and returns the trajectory handed out.
std::vector<Vec2> close_via_ingest(SessionServer& server, SessionId id,
                                   double angle_rad) {
  core::PenEvent close_event;
  close_event.type = core::PenEventType::kClose;
  close_event.session_id = id;
  close_event.azimuth_correction_rad = angle_rad;
  std::vector<SessionServer::ClosedSession> closed;
  server.ingest({close_event}, &closed);
  EXPECT_EQ(closed.size(), 1u);
  return closed.empty() ? std::vector<Vec2>{} : closed[0].trajectory;
}

TEST(SessionServer, AzimuthCorrectionAppliedOnClose) {
  // ingest() rotates the trajectory close() returns by the kClose event's
  // Eq. 10 angle, as PolarDraw::track rotates its decode.
  const PolarDrawConfig cfg = small_config();
  const auto tb = make_decode_testbed(cfg, 20, 5);
  SessionServerConfig scfg;
  scfg.stream.lag_windows = 32;
  scfg.n_workers = 1;
  SessionServer server(cfg, tb.a1, tb.a2, tb.antenna_z, scfg);
  server.open(1, &tb.start);
  for (const auto& o : tb.obs) server.submit(1, o);
  server.pump();
  const auto decoded =
      decode_full_lag(cfg, tb.a1, tb.a2, tb.antenna_z, tb.obs, &tb.start);
  const auto expected = core::correct_initial_azimuth(cfg, decoded, 0.3);
  ASSERT_NE(expected[0], decoded[0]);  // the angle really rotates
  expect_bit_identical(close_via_ingest(server, 1, 0.3), expected);
}

TEST(SessionServer, CloseFollowsRotationCorrectionConfig) {
  // Eq. 10 runs under the batch pipeline's gate: with either switch off,
  // ingest() ignores the kClose angle and hands out the isolated full-lag
  // decode bit for bit.
  PolarDrawConfig no_correction = small_config();
  no_correction.apply_rotation_correction = false;
  PolarDrawConfig no_polarization = small_config();
  no_polarization.use_polarization = false;
  for (const PolarDrawConfig& cfg : {no_correction, no_polarization}) {
    SCOPED_TRACE(cfg.use_polarization ? "apply_rotation_correction = false"
                                      : "use_polarization = false");
    const auto tb = make_decode_testbed(cfg, 20, 5);
    SessionServerConfig scfg;
    scfg.stream.lag_windows = 32;
    scfg.n_workers = 1;
    SessionServer server(cfg, tb.a1, tb.a2, tb.antenna_z, scfg);
    server.open(1, &tb.start);
    for (const auto& o : tb.obs) server.submit(1, o);
    server.pump();
    expect_bit_identical(
        close_via_ingest(server, 1, 0.2),
        decode_full_lag(cfg, tb.a1, tb.a2, tb.antenna_z, tb.obs, &tb.start));
  }
}

TEST(SessionServer, CommittedIsReadableDuringPump) {
  // committed() locks the session, so a reader may poll it while pump()
  // drains (runs under TSan in CI). Positions are frozen once committed,
  // so every copy it returns is a prefix of the closed trajectory.
  const PolarDrawConfig cfg = small_config();
  const int kWindows = 60;
  const auto tb = make_decode_testbed(cfg, kWindows, 13);
  SessionServerConfig scfg;
  scfg.stream.lag_windows = 4;
  scfg.n_workers = 2;
  SessionServer server(cfg, tb.a1, tb.a2, tb.antenna_z, scfg);
  server.open(1, &tb.start);
  std::atomic<bool> done{false};
  std::atomic<bool> started{false};
  std::vector<std::vector<Vec2>> reads;  // one per distinct length
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      std::vector<Vec2> r = server.committed(1);
      started.store(true, std::memory_order_release);
      if (reads.empty() || r.size() != reads.back().size()) {
        reads.push_back(std::move(r));
      }
    }
  });
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  for (const auto& o : tb.obs) {
    server.submit(1, o);
    server.pump();
  }
  done.store(true, std::memory_order_release);
  reader.join();
  const std::vector<Vec2> traj = server.close(1);
  ASSERT_FALSE(reads.empty());
  std::size_t prev = 0;
  for (const auto& r : reads) {
    ASSERT_GE(r.size(), prev);  // committed positions are never retracted
    ASSERT_LE(r.size(), traj.size());
    expect_bit_identical(
        r, std::vector<Vec2>(traj.begin(),
                             traj.begin() + static_cast<std::ptrdiff_t>(
                                                r.size())));
    prev = r.size();
  }
}

TEST(SessionServer, UnknownSessionIsRejected) {
  const PolarDrawConfig cfg = small_config();
  SessionServer server(cfg, {0.1, 0.35}, {0.3, 0.35}, 0.12);
  EXPECT_FALSE(server.submit(99, core::TrackObservation{}));
  EXPECT_TRUE(server.committed(99).empty());
  EXPECT_TRUE(server.close(99).empty());
  EXPECT_EQ(server.pump(), 0u);
}

// --- Multi-pen fuzz: associator + ingest, randomized interleaved streams --

/// Randomized multi-tag report stream with everything a contended reader
/// throws at the association layer: tags arriving and leaving mid-run
/// (tag 0 leaves and returns -> a second generation), jittered read
/// arrivals with collision-shaped bursts of silence, per-dwell frequency
/// hops with stable per-channel offsets, and occasional spurious phase
/// reads. Deterministic for a given seed.
rfid::TagReportStream make_fuzz_stream(std::uint64_t seed, int n_tags,
                                       double duration_s) {
  Rng rng(seed);
  constexpr double kDwell = 0.4;
  constexpr int kChannels = 20;
  rfid::TagReportStream reports;
  for (int tag = 0; tag < n_tags; ++tag) {
    const auto epc = static_cast<std::uint32_t>(0x100 + tag);
    // Presence intervals: tag 0 always churns (leaves + returns); the
    // others get one randomized interval each.
    std::vector<std::pair<double, double>> presence;
    if (tag == 0) {
      presence.push_back({0.0, 0.35 * duration_s});
      presence.push_back({0.65 * duration_s, duration_s});
    } else {
      const double on = rng.uniform(0.0, 0.3) * duration_s;
      const double off = rng.uniform(0.7, 1.0) * duration_s;
      presence.push_back({on, off});
    }
    const double phase0[2] = {rng.uniform(0.0, kTwoPi),
                              rng.uniform(0.0, kTwoPi)};
    const double slew[2] = {rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)};
    const double rss0[2] = {-42.0 - rng.uniform(0.0, 6.0),
                            -48.0 - rng.uniform(0.0, 6.0)};
    for (const auto& [on, off] : presence) {
      for (double t = on; t < off;) {
        const int ant = rng.chance(0.5) ? 0 : 1;
        const int dwell = static_cast<int>(t / kDwell);
        const int channel = (dwell * 7 + tag * 3) % kChannels;
        rfid::TagReport r;
        r.epc = epc;
        r.timestamp_s = t;
        r.antenna_id = ant;
        r.channel = channel;
        double phase = phase0[ant] + slew[ant] * t +
                       rfid::Reader::hop_channel_offset_rad(channel);
        if (rng.chance(0.02)) phase += kPi;  // spurious read
        r.phase_rad = wrap_2pi(phase);
        r.rss_dbm = rss0[ant] + 2.5 * std::sin(kTwoPi * t / 1.3 +
                                               (ant == 0 ? 0.0 : kPi)) +
                    rng.gaussian(0.0, 0.3);
        reports.push_back(r);
        // Jittered arrivals; occasional collision-shaped silence burst.
        t += rng.chance(0.05) ? rng.uniform(0.12, 0.2)
                              : rng.uniform(0.01, 0.04);
      }
    }
  }
  std::stable_sort(reports.begin(), reports.end(),
                   [](const rfid::TagReport& a, const rfid::TagReport& b) {
                     return a.timestamp_s < b.timestamp_s ||
                            (a.timestamp_s == b.timestamp_s && a.epc < b.epc);
                   });
  return reports;
}

core::PhaseCalibration fuzz_calibration() {
  core::PhaseCalibration cal;
  cal.channel_offsets_rad.resize(20);
  for (int c = 0; c < 20; ++c) {
    cal.channel_offsets_rad[static_cast<std::size_t>(c)] =
        rfid::Reader::hop_channel_offset_rad(c);
  }
  return cal;
}

/// Drives the full multi-pen path -- report stream -> associator ->
/// SessionServer::ingest -> pump on a cadence -> flush -- and returns the
/// closed trajectories keyed by session id.
std::map<SessionId, std::vector<Vec2>> run_fuzz_load(
    const PolarDrawConfig& cfg, const rfid::TagReportStream& stream,
    int n_workers, std::size_t pump_every) {
  core::AssociatorConfig acfg;
  acfg.idle_close_s = 0.25;
  const core::PhaseCalibration cal = fuzz_calibration();
  core::TagTrackAssociator assoc(cfg, acfg, &cal);
  SessionServerConfig scfg;
  scfg.n_workers = n_workers;
  const Vec2 a1{cfg.board_width_m * 0.25, cfg.board_height_m + 0.05};
  const Vec2 a2{cfg.board_width_m * 0.75, cfg.board_height_m + 0.05};
  SessionServer server(cfg, a1, a2, 0.12, scfg);
  std::vector<SessionServer::ClosedSession> closed;
  std::size_t since_pump = 0;
  for (const auto& r : stream) {
    server.ingest(assoc.push(r), &closed);
    if (++since_pump == pump_every) {
      server.pump();
      since_pump = 0;
    }
  }
  server.ingest(assoc.flush(), &closed);
  EXPECT_EQ(server.session_count(), 0u);
  std::map<SessionId, std::vector<Vec2>> out;
  for (auto& c : closed) out[c.id] = std::move(c.trajectory);
  return out;
}

TEST(MultipenFuzz, WorkerCountAndPumpCadenceBitIdentical) {
  // The end-to-end multi-pen contract: for a randomized interleaved
  // stream (churn, collision gaps, hop boundaries, spurious reads), the
  // closed trajectories are a pure function of the report stream --
  // 1 worker pumping rarely and 8 workers pumping often must agree bit
  // for bit, per session, and on the deterministic counter aggregates.
  const PolarDrawConfig cfg = small_config();
  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(true);

  for (const std::uint64_t seed : {101ull, 202ull, 303ull}) {
    const auto stream = make_fuzz_stream(seed, /*n_tags=*/6,
                                         /*duration_s=*/3.0);
    ASSERT_GT(stream.size(), 300u) << "seed " << seed;

    reg.reset();
    const auto one = run_fuzz_load(cfg, stream, /*n_workers=*/1,
                                   /*pump_every=*/97);
    const obs::Snapshot snap1 = reg.snapshot();
    reg.reset();
    const auto eight = run_fuzz_load(cfg, stream, /*n_workers=*/8,
                                     /*pump_every=*/13);
    const obs::Snapshot snap8 = reg.snapshot();

    // Tag 0's churn forces a second generation: strictly more sessions
    // than tags.
    ASSERT_GT(one.size(), 6u) << "seed " << seed;
    ASSERT_EQ(one.size(), eight.size()) << "seed " << seed;
    for (const auto& [id, traj] : one) {
      const auto it = eight.find(id);
      ASSERT_NE(it, eight.end()) << "seed " << seed << " session " << id;
      expect_bit_identical(traj, it->second);
      EXPECT_FALSE(traj.empty()) << "seed " << seed << " session " << id;
    }
    for (const char* name :
         {"assoc.sessions_opened", "assoc.sessions_closed",
          "assoc.observations", "preprocess.phase_rejected",
          "server.observations", "server.sessions_closed", "hmm.windows"}) {
      EXPECT_EQ(snap1.counter(name), snap8.counter(name))
          << name << " seed " << seed;
    }
  }
  reg.reset();
  reg.set_enabled(false);
}

TEST(MultipenFuzz, IngestMatchesManualEventApplication) {
  // ingest() is pure glue: applying the same event batch by hand through
  // open/submit/close, then Eq. 10 by the kClose angle, must give
  // identical trajectories, and the returned count must equal the
  // observation events submitted.
  const PolarDrawConfig cfg = small_config();
  const auto stream = make_fuzz_stream(7, /*n_tags=*/4, /*duration_s=*/2.0);
  core::AssociatorConfig acfg;
  acfg.idle_close_s = 0.25;
  const core::PhaseCalibration cal = fuzz_calibration();
  core::TagTrackAssociator assoc(cfg, acfg, &cal);
  auto events = assoc.push(stream);
  const auto tail = assoc.flush();
  events.insert(events.end(), tail.begin(), tail.end());

  const Vec2 a1{cfg.board_width_m * 0.25, cfg.board_height_m + 0.05};
  const Vec2 a2{cfg.board_width_m * 0.75, cfg.board_height_m + 0.05};
  SessionServer via_ingest(cfg, a1, a2, 0.12);
  std::vector<SessionServer::ClosedSession> closed;
  const std::size_t submitted = via_ingest.ingest(events, &closed);

  SessionServer manual(cfg, a1, a2, 0.12);
  std::map<SessionId, std::vector<Vec2>> expected;
  std::size_t observation_events = 0;
  for (const auto& e : events) {
    switch (e.type) {
      case core::PenEventType::kOpen:
        manual.open(e.session_id);
        break;
      case core::PenEventType::kObservation:
        EXPECT_TRUE(manual.submit(e.session_id, e.obs));
        ++observation_events;
        break;
      case core::PenEventType::kClose:
        expected[e.session_id] = core::correct_initial_azimuth(
            cfg, manual.close(e.session_id), e.azimuth_correction_rad);
        break;
    }
  }
  EXPECT_EQ(submitted, observation_events);
  ASSERT_EQ(closed.size(), expected.size());
  for (const auto& c : closed) {
    const auto it = expected.find(c.id);
    ASSERT_NE(it, expected.end()) << "session " << c.id;
    expect_bit_identical(c.trajectory, it->second);
    // The associator packs the EPC into the low session-id bits.
    EXPECT_EQ(c.epc, static_cast<std::uint32_t>(c.id & 0xFFFFFFFFull));
  }
}

TEST(MultipenFuzz, SoakSubmitConcurrentWithPump) {
  // The documented-legal race: submit() from an ingest thread while the
  // control thread pump()s. Per-session mailbox mutexes order the two, so
  // the result must still equal the batch decode. Run under TSan in CI
  // (multi-pen soak step).
  const PolarDrawConfig cfg = small_config();
  const int kPens = 4, kWindows = 40;
  std::vector<DecodeTestbed> pens;
  for (int p = 0; p < kPens; ++p) {
    pens.push_back(
        make_decode_testbed(cfg, kWindows, static_cast<std::uint64_t>(p) + 21));
  }
  SessionServerConfig scfg;
  scfg.stream.lag_windows = 6;
  scfg.n_workers = 4;
  SessionServer server(cfg, pens[0].a1, pens[0].a2, pens[0].antenna_z, scfg);
  for (int p = 0; p < kPens; ++p) {
    server.open(static_cast<SessionId>(p),
                &pens[static_cast<std::size_t>(p)].start);
  }
  std::atomic<bool> done{false};
  std::thread ingest([&] {
    for (int w = 0; w < kWindows; ++w) {
      for (int p = 0; p < kPens; ++p) {
        server.submit(
            static_cast<SessionId>(p),
            pens[static_cast<std::size_t>(p)].obs[static_cast<std::size_t>(w)]);
      }
    }
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) {
    server.pump();
  }
  ingest.join();
  server.pump();

  // Reference: the same server config driven sequentially. The decode is a
  // sequential function of each session's observation stream, so pump
  // timing (and the concurrent ingest) must not change the result.
  SessionServer reference(cfg, pens[0].a1, pens[0].a2, pens[0].antenna_z,
                          scfg);
  for (int p = 0; p < kPens; ++p) {
    reference.open(static_cast<SessionId>(p),
                   &pens[static_cast<std::size_t>(p)].start);
  }
  for (int w = 0; w < kWindows; ++w) {
    for (int p = 0; p < kPens; ++p) {
      reference.submit(
          static_cast<SessionId>(p),
          pens[static_cast<std::size_t>(p)].obs[static_cast<std::size_t>(w)]);
    }
    if (w % 5 == 0) reference.pump();
  }
  reference.pump();
  for (int p = 0; p < kPens; ++p) {
    expect_bit_identical(server.close(static_cast<SessionId>(p)),
                         reference.close(static_cast<SessionId>(p)));
  }
}

TEST(MultipenFuzz, SoakStatusAndSnapshotsConcurrentWithDecode) {
  // Live-introspection race soak (runs under TSan in CI): one thread
  // ingests, 8 workers pump, and a reader thread hammers status(),
  // healthz(), and Registry snapshots the whole time. The mid-flight
  // reads must be safe, and the final quiescent snapshot must be
  // bit-identical to a run that never took a concurrent snapshot.
  const core::PolarDrawConfig cfg = small_config();
  const int kPens = 4, kWindows = 40;
  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(true);

  std::vector<DecodeTestbed> pens;
  for (int p = 0; p < kPens; ++p) {
    pens.push_back(
        make_decode_testbed(cfg, kWindows, static_cast<std::uint64_t>(p) + 31));
  }
  SessionServerConfig scfg;
  scfg.stream.lag_windows = 6;
  scfg.n_workers = 8;

  const auto drive = [&](SessionServer& server, bool concurrent_reads) {
    for (int p = 0; p < kPens; ++p) {
      server.open(static_cast<SessionId>(p),
                  &pens[static_cast<std::size_t>(p)].start);
    }
    std::atomic<bool> done{false};
    std::thread reader;
    if (concurrent_reads) {
      reader = std::thread([&] {
        std::size_t reads = 0;
        while (!done.load(std::memory_order_acquire)) {
          const std::string doc = server.status();
          EXPECT_NE(doc.find("polardraw.statusz.v1"), std::string::npos);
          (void)server.healthz();
          const obs::Snapshot snap = reg.snapshot();
          EXPECT_GE(snap.counters.size(), 0u);
          ++reads;
        }
        EXPECT_GT(reads, 0u);
      });
    }
    for (int w = 0; w < kWindows; ++w) {
      for (int p = 0; p < kPens; ++p) {
        server.submit(
            static_cast<SessionId>(p),
            pens[static_cast<std::size_t>(p)].obs[static_cast<std::size_t>(w)],
            /*t_s=*/0.1 * w);
      }
      server.pump();
    }
    done.store(true, std::memory_order_release);
    if (reader.joinable()) reader.join();
    std::vector<std::vector<Vec2>> out;
    for (int p = 0; p < kPens; ++p) {
      out.push_back(server.close(static_cast<SessionId>(p)));
    }
    return out;
  };

  reg.reset();
  SessionServer soaked(cfg, pens[0].a1, pens[0].a2, pens[0].antenna_z, scfg);
  const auto with_reads = drive(soaked, /*concurrent_reads=*/true);
  const obs::Snapshot snap_soaked = reg.snapshot();

  reg.reset();
  SessionServer quiet(cfg, pens[0].a1, pens[0].a2, pens[0].antenna_z, scfg);
  const auto without_reads = drive(quiet, /*concurrent_reads=*/false);
  const obs::Snapshot snap_quiet = reg.snapshot();

  ASSERT_EQ(with_reads.size(), without_reads.size());
  for (std::size_t p = 0; p < with_reads.size(); ++p) {
    expect_bit_identical(with_reads[p], without_reads[p]);
  }
  // Quiescent-vs-concurrent pin: once the run is over, the registry's
  // deterministic aggregates must not remember that snapshots happened
  // mid-flight.
  for (const char* name :
       {"server.observations", "server.commits", "hmm.windows",
        "hmm.beam_expansions"}) {
    EXPECT_EQ(snap_soaked.counter(name), snap_quiet.counter(name)) << name;
  }
  const auto* hist_soaked = snap_soaked.histogram("server.push_to_commit_s");
  const auto* hist_quiet = snap_quiet.histogram("server.push_to_commit_s");
  ASSERT_NE(hist_soaked, nullptr);
  ASSERT_NE(hist_quiet, nullptr);
  EXPECT_EQ(hist_soaked->count, hist_quiet->count);

  reg.reset();
  reg.set_enabled(false);
}

TEST(SessionServer, ObservabilityOnOffTrajectoryBitIdentity) {
  // The zero-feedback contract end to end: metrics + logging + statusz
  // polling + flow tracing all running must not change a single bit of
  // any trajectory relative to a run with every observability surface
  // off.
  const core::PolarDrawConfig cfg = small_config();
  const int kPens = 3, kWindows = 30;
  std::vector<DecodeTestbed> pens;
  for (int p = 0; p < kPens; ++p) {
    pens.push_back(
        make_decode_testbed(cfg, kWindows, static_cast<std::uint64_t>(p) + 51));
  }
  SessionServerConfig scfg;
  scfg.stream.lag_windows = 5;
  scfg.n_workers = 4;

  const auto drive = [&](bool observability) {
    std::ostringstream log_sink;
    if (observability) {
      obs::Registry::global().set_enabled(true);
      obs::Registry::global().reset();
      obs::Tracer::global().set_enabled(true);
      obs::Tracer::global().reset();
      obs::Logger::global().set_sink(&log_sink);
    }
    SessionServer server(cfg, pens[0].a1, pens[0].a2, pens[0].antenna_z,
                         scfg);
    for (int p = 0; p < kPens; ++p) {
      server.open(static_cast<SessionId>(p),
                  &pens[static_cast<std::size_t>(p)].start);
    }
    std::uint64_t flow_serial = 0;
    for (int w = 0; w < kWindows; ++w) {
      for (int p = 0; p < kPens; ++p) {
        server.submit(
            static_cast<SessionId>(p),
            pens[static_cast<std::size_t>(p)].obs[static_cast<std::size_t>(w)],
            /*t_s=*/0.05 * w, /*flow_id=*/++flow_serial);
      }
      server.pump();
      if (observability) {
        (void)server.status();
        (void)server.healthz();
      }
    }
    std::vector<std::vector<Vec2>> out;
    for (int p = 0; p < kPens; ++p) {
      out.push_back(server.close(static_cast<SessionId>(p)));
    }
    if (observability) {
      EXPECT_FALSE(log_sink.str().empty());  // lifecycle events did emit
      obs::Logger::global().set_sink(nullptr);
      obs::Tracer::global().reset();
      obs::Tracer::global().set_enabled(false);
      obs::Registry::global().reset();
      obs::Registry::global().set_enabled(false);
    }
    return out;
  };

  const auto instrumented = drive(true);
  const auto bare = drive(false);
  ASSERT_EQ(instrumented.size(), bare.size());
  for (std::size_t p = 0; p < instrumented.size(); ++p) {
    expect_bit_identical(instrumented[p], bare[p]);
  }
}

}  // namespace
}  // namespace polardraw::server
