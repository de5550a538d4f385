// Tests for tag-to-track association (core/association.h): event
// sequencing, generation churn, equivalence with the batch pipeline, late
// and far-future reports, the hop-fence log, and interleaving invariance.
#include "core/association.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/angles.h"
#include "core/motion_front_end.h"
#include "core/polardraw.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace polardraw::core {
namespace {

rfid::TagReport report(std::uint32_t epc, double t, int ant, double rss_dbm,
                       double phase_rad, int channel = 0) {
  rfid::TagReport r;
  r.epc = epc;
  r.timestamp_s = t;
  r.antenna_id = ant;
  r.rss_dbm = rss_dbm;
  r.phase_rad = wrap_2pi(phase_rad);
  r.channel = channel;
  return r;
}

/// A well-behaved single-tag stream: both antennas every window, slow
/// phase slew and RSS drift, `n_windows` windows at 4 reads per antenna.
rfid::TagReportStream smooth_stream(std::uint32_t epc, double t0,
                                    int n_windows) {
  rfid::TagReportStream out;
  for (int w = 0; w < n_windows; ++w) {
    for (int k = 0; k < 4; ++k) {
      const double t = t0 + w * 0.05 + k * 0.012;
      out.push_back(report(epc, t, 0, -40.0 - 0.2 * w, 1.0 + 0.05 * w));
      out.push_back(report(epc, t + 0.001, 1, -50.0 + 0.1 * w,
                           2.0 - 0.04 * w));
    }
  }
  return out;
}

std::vector<PenEvent> events_of_type(const std::vector<PenEvent>& events,
                                     PenEventType type) {
  std::vector<PenEvent> out;
  for (const auto& e : events) {
    if (e.type == type) out.push_back(e);
  }
  return out;
}

TEST(Association, SingleTagLifecycle) {
  PolarDrawConfig cfg;
  TagTrackAssociator assoc(cfg);
  auto events = assoc.push(smooth_stream(0xA1, 0.0, 10));
  const auto tail = assoc.flush();
  events.insert(events.end(), tail.begin(), tail.end());

  const auto opens = events_of_type(events, PenEventType::kOpen);
  const auto obs = events_of_type(events, PenEventType::kObservation);
  const auto closes = events_of_type(events, PenEventType::kClose);
  ASSERT_EQ(opens.size(), 1u);
  ASSERT_EQ(closes.size(), 1u);
  EXPECT_EQ(opens[0].session_id, TagTrackAssociator::make_session_id(0xA1, 0));
  EXPECT_EQ(opens[0].epc, 0xA1u);
  // 10 windows of reports: the last window is finalized by flush, so all
  // 10 come through.
  EXPECT_EQ(obs.size(), 10u);
  // The open precedes every observation; the close is last.
  EXPECT_EQ(events.front().type, PenEventType::kOpen);
  EXPECT_EQ(events.back().type, PenEventType::kClose);
  // Observation times are the window centers, in order.
  for (std::size_t i = 1; i < obs.size(); ++i) {
    EXPECT_GT(obs[i].t_s, obs[i - 1].t_s);
  }
  EXPECT_EQ(assoc.open_tracks(), 0u);
}

TEST(Association, IdleGapClosesAndReopensNewGeneration) {
  PolarDrawConfig cfg;
  AssociatorConfig acfg;
  acfg.idle_close_s = 0.5;
  TagTrackAssociator assoc(cfg, acfg);
  auto events = assoc.push(smooth_stream(0xA1, 0.0, 4));
  // 2 s of silence, then the pen returns.
  auto later = assoc.push(smooth_stream(0xA1, 2.2, 4));
  events.insert(events.end(), later.begin(), later.end());
  const auto tail = assoc.flush();
  events.insert(events.end(), tail.begin(), tail.end());

  const auto opens = events_of_type(events, PenEventType::kOpen);
  const auto closes = events_of_type(events, PenEventType::kClose);
  ASSERT_EQ(opens.size(), 2u);
  ASSERT_EQ(closes.size(), 2u);
  EXPECT_EQ(opens[0].session_id, TagTrackAssociator::make_session_id(0xA1, 0));
  EXPECT_EQ(opens[1].session_id, TagTrackAssociator::make_session_id(0xA1, 1));
  // The stale close fires when the returning report arrives, before the
  // new open.
  EXPECT_EQ(closes[0].session_id, opens[0].session_id);
}

TEST(Association, StaleTrackClosedByOtherTagsTime) {
  // Tag B stops reporting while tag A keeps the stream alive: B's close
  // must fire off A's advancing timestamps, not wait for flush.
  PolarDrawConfig cfg;
  AssociatorConfig acfg;
  acfg.idle_close_s = 0.4;
  TagTrackAssociator assoc(cfg, acfg);
  std::vector<PenEvent> events;
  for (double t = 0.0; t < 2.0; t += 0.05) {
    auto ev = assoc.push(report(0xAA, t, 0, -40.0, 1.0));
    events.insert(events.end(), ev.begin(), ev.end());
    if (t < 0.5) {
      auto evb = assoc.push(report(0xBB, t + 0.01, 1, -45.0, 2.0));
      events.insert(events.end(), evb.begin(), evb.end());
    }
  }
  EXPECT_EQ(assoc.open_tracks(), 1u);  // only A remains
  bool b_closed = false;
  for (const auto& e : events) {
    if (e.type == PenEventType::kClose && e.epc == 0xBB) b_closed = true;
  }
  EXPECT_TRUE(b_closed);
}

TEST(Association, InterleavingInvariant) {
  // The associator's per-EPC event streams must not depend on how other
  // tags' reports interleave: demultiplexing an interleaved two-tag
  // stream yields exactly the events of each tag pushed alone.
  PolarDrawConfig cfg;
  const auto a = smooth_stream(0xA1, 0.0, 8);
  const auto b = smooth_stream(0xB2, 0.013, 8);
  // Time-ordered merge.
  rfid::TagReportStream merged = a;
  merged.insert(merged.end(), b.begin(), b.end());
  std::stable_sort(merged.begin(), merged.end(),
                   [](const rfid::TagReport& x, const rfid::TagReport& y) {
                     return x.timestamp_s < y.timestamp_s;
                   });

  const auto run = [&cfg](const rfid::TagReportStream& s) {
    TagTrackAssociator assoc(cfg);
    auto ev = assoc.push(s);
    const auto tail = assoc.flush();
    ev.insert(ev.end(), tail.begin(), tail.end());
    return ev;
  };
  const auto interleaved = run(merged);
  const auto solo_a = run(a);
  const auto solo_b = run(b);

  std::map<std::uint32_t, std::vector<PenEvent>> by_epc;
  for (const auto& e : interleaved) by_epc[e.epc].push_back(e);
  const auto expect_same = [](const std::vector<PenEvent>& got,
                              const std::vector<PenEvent>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(static_cast<int>(got[i].type),
                static_cast<int>(want[i].type));
      ASSERT_EQ(got[i].session_id, want[i].session_id);
      ASSERT_EQ(got[i].t_s, want[i].t_s);
      ASSERT_EQ(got[i].obs.has_phase, want[i].obs.has_phase);
      ASSERT_EQ(got[i].obs.distance.lower_m, want[i].obs.distance.lower_m);
      ASSERT_EQ(got[i].obs.distance.dtheta21, want[i].obs.distance.dtheta21);
      ASSERT_EQ(got[i].obs.direction.direction.x,
                want[i].obs.direction.direction.x);
      ASSERT_EQ(got[i].obs.direction.direction.y,
                want[i].obs.direction.direction.y);
      ASSERT_EQ(got[i].azimuth_correction_rad,
                want[i].azimuth_correction_rad);
    }
  };
  expect_same(by_epc[0xA1], solo_a);
  expect_same(by_epc[0xB2], solo_b);
}

/// A single-tag stream with RSS swings (rotation windows), phase slews
/// (translation windows) and an optional read gap. From window
/// `hop_window` on, reads come from channel 13 with that channel's RF-chain
/// offset added; before it, from channel 5.
rfid::TagReportStream mixed_stream(int n_windows, int gap_window = -1,
                                   int hop_window = -1) {
  constexpr double kOff5 = 0.9, kOff13 = 2.6;
  rfid::TagReportStream stream;
  for (int w = 0; w < n_windows; ++w) {
    if (w == gap_window) continue;  // read gap
    const bool hopped = hop_window >= 0 && w >= hop_window;
    const int ch = hopped ? 13 : 5;
    const double off = hopped ? kOff13 : kOff5;
    const double swing = w % 5 == 0 ? 2.5 : 0.0;
    for (int k = 0; k < 3; ++k) {
      const double t = w * 0.05 + k * 0.015;
      stream.push_back(report(0xC4, t, 0, -40.0 - 0.3 * w + swing,
                              1.0 + 0.06 * w + off, ch));
      stream.push_back(report(0xC4, t + 0.002, 1, -48.0 + 0.2 * w - swing,
                              2.0 - 0.05 * w + off, ch));
    }
  }
  return stream;
}

/// A pen rotating clockwise at a steady rate: antenna 0's RSS falls and
/// antenna 1's rises by 1.5 dB a window, a sector-2 pattern that carries
/// the tracked azimuth across the sector 2|3 boundary, so the first sector
/// crossing sets a non-zero Eq. 10 correction.
rfid::TagReportStream rotating_stream(int n_windows) {
  rfid::TagReportStream stream;
  for (int w = 0; w < n_windows; ++w) {
    for (int k = 0; k < 3; ++k) {
      const double t = w * 0.05 + k * 0.015;
      stream.push_back(report(0xC4, t, 0, -40.0 - 1.5 * w, 1.0 + 0.06 * w));
      stream.push_back(
          report(0xC4, t + 0.002, 1, -60.0 + 1.5 * w, 2.0 - 0.05 * w));
    }
  }
  return stream;
}

PhaseCalibration hop_calibration() {
  PhaseCalibration cal;
  cal.channel_offsets_rad.assign(20, 0.0);
  cal.channel_offsets_rad[5] = 0.9;
  cal.channel_offsets_rad[13] = 2.6;
  return cal;
}

void expect_same_direction(const DirectionEstimate& got,
                           const DirectionEstimate& want, std::size_t i) {
  EXPECT_EQ(static_cast<int>(got.type), static_cast<int>(want.type)) << i;
  EXPECT_EQ(got.direction.x, want.direction.x) << "window " << i;
  EXPECT_EQ(got.direction.y, want.direction.y) << "window " << i;
  EXPECT_EQ(got.alpha_a_rad, want.alpha_a_rad) << "window " << i;
  EXPECT_EQ(static_cast<int>(got.sense), static_cast<int>(want.sense)) << i;
  EXPECT_EQ(static_cast<int>(got.sector), static_cast<int>(want.sector)) << i;
}

void expect_same_distance(const DistanceEstimate& got,
                          const DistanceEstimate& want, std::size_t i) {
  EXPECT_EQ(got.valid, want.valid) << "window " << i;
  EXPECT_EQ(got.lower_m, want.lower_m) << "window " << i;
  EXPECT_EQ(got.upper_m, want.upper_m) << "window " << i;
  EXPECT_EQ(got.dtheta21, want.dtheta21) << "window " << i;
}

TEST(Association, MatchesBatchPipelineWindowForWindow) {
  // The associator (per-report windowing, one-window hold, flush at close)
  // must hand the decoder exactly the observations the batch pipeline
  // does: preprocess(), then every window pushed through a MotionFrontEnd
  // and flushed -- what PolarDraw::track decodes. Compared whole
  // and bit for bit, smoothed directions included, on short streams (the
  // smoothing edges), a gapped stream, an uncalibrated and a calibrated
  // hop, the gapped stream with a late and a far-future read, which both
  // pipelines' window clock drops and counts alike, a spurious phase,
  // which both pipelines' PhaseGate rejects and counts alike, and a
  // rotating pen whose close carries a non-zero Eq. 10 angle.
  PolarDrawConfig cfg;
  const PhaseCalibration cal = hop_calibration();
  AssociatorConfig no_idle_close;
  no_idle_close.idle_close_s = std::numeric_limits<double>::infinity();
  rfid::TagReportStream hostile = mixed_stream(24, 11);
  // After window 12's reads (window 11 is the gap): window 5 is finished.
  hostile.insert(hostile.begin() + 12 * 6,
                 report(0xC4, 0.26, 0, -90.0, 4.0, 5));
  hostile.push_back(report(0xC4, hostile.back().timestamp_s + 1e4, 1, -45.0,
                           0.5, 5));
  // Window 8's antenna-0 phase jumps 1.5 rad, far past the 0.2 rad gate.
  rfid::TagReportStream spiked = mixed_stream(16);
  for (std::size_t i = 8 * 6; i < 9 * 6; i += 2) {
    spiked[i].phase_rad = wrap_2pi(spiked[i].phase_rad + 1.5);
  }
  struct Case {
    const char* name;
    rfid::TagReportStream stream;
    const PhaseCalibration* calibration;
    AssociatorConfig acfg;
    std::uint64_t late_and_far;  // drops of each kind, per pass
  };
  const Case cases[] = {
      {"2 windows", mixed_stream(2), nullptr, {}, 0},
      {"3 windows", mixed_stream(3), nullptr, {}, 0},
      {"24 windows + gap", mixed_stream(24, 11), nullptr, {}, 0},
      {"uncalibrated hop", mixed_stream(16, -1, 7), nullptr, {}, 0},
      {"calibrated hop", mixed_stream(16, -1, 7), &cal, {}, 0},
      // Idle close off keeps the far read away from the associator's
      // idle-close scan, which no batch pass has.
      {"late + far reads", hostile, nullptr, no_idle_close, 1},
      {"spurious phase", spiked, nullptr, {}, 0},
      {"sector crossing", rotating_stream(16), nullptr, {}, 0},
  };
  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(true);
  // Checks a pass's clock drops; returns its spurious-phase rejections.
  const auto end_pass = [&reg](std::uint64_t n, const char* pass) {
    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.counter("preprocess.late_reports"), n) << pass;
    EXPECT_EQ(snap.counter("preprocess.far_reports"), n) << pass;
    reg.reset();
    return snap.counter("preprocess.phase_rejected");
  };
  int crossings = 0;  // cases whose close carries a non-zero angle
  int rejecting = 0;  // cases with a spurious-phase rejection
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    reg.reset();
    const auto windows = preprocess(c.stream, cfg, c.calibration);
    const std::uint64_t rejected = end_pass(c.late_and_far, "preprocess");
    std::vector<TrackObservation> batch_obs;
    MotionFrontEnd front(cfg);
    for (const Window& w : windows) {
      if (auto step = front.push(w); step.released) {
        batch_obs.push_back(step.released->obs);
      }
    }
    if (auto tail = front.flush()) batch_obs.push_back(tail->obs);
    const PolarDraw batch(cfg, Vec2{0.22, 1.25}, Vec2{0.78, 1.25}, 0.12);
    const auto batch_res = batch.track(c.stream, c.calibration);
    EXPECT_EQ(end_pass(c.late_and_far, "track"), rejected);

    TagTrackAssociator assoc(cfg, c.acfg, c.calibration);
    auto events = assoc.push(c.stream);
    const auto tail = assoc.flush();
    events.insert(events.end(), tail.begin(), tail.end());
    EXPECT_EQ(end_pass(c.late_and_far, "associator"), rejected);
    if (rejected > 0) ++rejecting;
    const auto obs = events_of_type(events, PenEventType::kObservation);

    ASSERT_EQ(windows.size(), obs.size());
    ASSERT_EQ(batch_obs.size(), obs.size());
    ASSERT_EQ(batch_res.diagnostics.size(), obs.size());
    for (std::size_t i = 0; i < obs.size(); ++i) {
      ASSERT_EQ(obs[i].t_s, batch_res.diagnostics[i].t_s) << "window " << i;
      EXPECT_EQ(obs[i].obs.has_phase, batch_obs[i].has_phase) << i;
      expect_same_direction(obs[i].obs.direction, batch_obs[i].direction, i);
      expect_same_distance(obs[i].obs.distance, batch_obs[i].distance, i);
      // The batch diagnostics are the raw estimates of the same windows.
      EXPECT_EQ(static_cast<int>(batch_res.diagnostics[i].obs.direction.type),
                static_cast<int>(obs[i].obs.direction.type))
          << "window " << i;
      expect_same_distance(batch_res.diagnostics[i].obs.distance,
                           obs[i].obs.distance, i);
    }
    // The one close carries the batch pipeline's Eq. 10 angle exactly.
    const auto closes = events_of_type(events, PenEventType::kClose);
    ASSERT_EQ(closes.size(), 1u);
    EXPECT_EQ(closes[0].azimuth_correction_rad,
              batch_res.azimuth_correction_rad);
    if (closes[0].azimuth_correction_rad != 0.0) ++crossings;
  }
  EXPECT_EQ(crossings, 1);  // the rotating pen's; the rest never cross
  EXPECT_EQ(rejecting, 1);  // the spiked pen's; the rest reject nothing
  reg.reset();
  reg.set_enabled(false);
}

TEST(Association, HopFenceLogNamesBothChannels) {
  // An uncalibrated hop fences both antennas' phase, and the associator
  // logs each fence under assoc.hop_fence with the channel the gate
  // restarted from (the channel PhaseGate::gate returns) and the one the
  // window hopped to. mixed_stream hops from channel 5 to 13 at window 7;
  // calibrated, the hop fences nothing and nothing is logged.
  const PolarDrawConfig cfg;
  const PhaseCalibration cal = hop_calibration();
  obs::Logger& lg = obs::Logger::global();
  for (const PhaseCalibration* calibration :
       {&cal, static_cast<const PhaseCalibration*>(nullptr)}) {
    SCOPED_TRACE(calibration != nullptr ? "calibrated" : "uncalibrated");
    std::ostringstream sink;
    lg.set_sink(&sink);
    TagTrackAssociator assoc(cfg, {}, calibration);
    (void)assoc.push(mixed_stream(16, -1, 7));
    (void)assoc.flush();
    lg.set_sink(nullptr);
    std::vector<std::string> fences;
    std::istringstream lines(sink.str());
    for (std::string line; std::getline(lines, line);) {
      if (line.find("\"event\":\"assoc.hop_fence\"") != std::string::npos) {
        fences.push_back(line);
      }
    }
    if (calibration != nullptr) {
      EXPECT_TRUE(fences.empty());
      continue;
    }
    ASSERT_EQ(fences.size(), 2u) << sink.str();
    for (std::size_t a = 0; a < fences.size(); ++a) {
      for (const std::string& field :
           {"\"antenna\":" + std::to_string(a), std::string("\"window\":7"),
            std::string("\"from_channel\":5"),
            std::string("\"to_channel\":13")}) {
        EXPECT_NE(fences[a].find(field), std::string::npos)
            << field << " missing from " << fences[a];
      }
    }
  }
}

TEST(Association, LateReportDroppedAndCounted) {
  // A report for an already finalized window (or from before the track's
  // first report) cannot reopen it: it is dropped, counted, and leaves
  // the event stream exactly as if it had never arrived.
  PolarDrawConfig cfg;
  const auto clean = smooth_stream(0xA1, 0.0, 24);
  const auto run = [&cfg](const rfid::TagReportStream& s) {
    TagTrackAssociator assoc(cfg);
    auto ev = assoc.push(s);
    const auto tail = assoc.flush();
    ev.insert(ev.end(), tail.begin(), tail.end());
    return ev;
  };
  const auto expected = run(clean);

  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(true);
  for (const double late_t : {0.26, -0.5}) {
    SCOPED_TRACE(late_t);
    // Injected after window 12's reads: window 5 (or pre-origin time) is
    // long finalized.
    rfid::TagReportStream injected = clean;
    const auto at = injected.begin() + 12 * 8;
    injected.insert(at, report(0xA1, late_t, 0, -90.0, 4.0));
    reg.reset();
    const auto got = run(injected);
    EXPECT_EQ(reg.snapshot().counter("preprocess.late_reports"), 1u);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(static_cast<int>(got[i].type),
                static_cast<int>(expected[i].type));
      ASSERT_EQ(got[i].t_s, expected[i].t_s);
      ASSERT_EQ(got[i].obs.has_phase, expected[i].obs.has_phase);
      expect_same_direction(got[i].obs.direction, expected[i].obs.direction,
                            i);
      expect_same_distance(got[i].obs.distance, expected[i].obs.distance, i);
      ASSERT_EQ(got[i].azimuth_correction_rad,
                expected[i].azimuth_correction_rad);
    }
  }
  reg.reset();
  reg.set_enabled(false);
}

TEST(Association, FarFutureReportDroppedAndCounted) {
  // With idle close off, a report far past its track's current window (a
  // jumped clock) must not make the track finalize every empty window up
  // to it -- 200,000 of them for a jump to 1e4 s, an int overflow at 1e9 s
  // -- nor turn the pen's later reports into late ones. It is dropped and
  // counted, and the event stream is that of the stream without it.
  PolarDrawConfig cfg;
  AssociatorConfig acfg;
  acfg.idle_close_s = std::numeric_limits<double>::infinity();
  auto clean = smooth_stream(0xA2, 0.0, 20);
  const auto later = smooth_stream(0xA2, 1.01, 20);
  clean.insert(clean.end(), later.begin(), later.end());
  const auto run = [&cfg, &acfg](const rfid::TagReportStream& s) {
    TagTrackAssociator assoc(cfg, acfg);
    auto ev = assoc.push(s);
    const auto tail = assoc.flush();
    ev.insert(ev.end(), tail.begin(), tail.end());
    return ev;
  };
  const auto expected = run(clean);

  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(true);
  for (const double far_t : {1e4, 1e9}) {
    SCOPED_TRACE(far_t);
    rfid::TagReportStream injected = clean;
    injected.insert(injected.begin() + 20 * 8,
                    report(0xA2, far_t, 0, -45.0, 1.0));
    reg.reset();
    const auto got = run(injected);
    EXPECT_LT(events_of_type(got, PenEventType::kObservation).size(), 100u);
    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.counter("preprocess.far_reports"), 1u);
    EXPECT_EQ(snap.counter("preprocess.late_reports"), 0u);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(static_cast<int>(got[i].type),
                static_cast<int>(expected[i].type));
      ASSERT_EQ(got[i].t_s, expected[i].t_s);
      ASSERT_EQ(got[i].obs.has_phase, expected[i].obs.has_phase);
    }
  }
  reg.reset();
  reg.set_enabled(false);
}

TEST(Association, CalibratedHopKeepsPhaseDeltasUsable) {
  // Across a channel hop, an uncalibrated associator loses the phase
  // delta (dtheta fenced -> no distance estimate in the post-hop window)
  // while a channel-calibrated one keeps it.
  PolarDrawConfig cfg;
  const double off5 = 0.9, off13 = 2.6;
  rfid::TagReportStream stream;
  for (int w = 0; w < 8; ++w) {
    const bool hopped = w >= 4;
    const int ch = hopped ? 13 : 5;
    const double off = hopped ? off13 : off5;
    for (int k = 0; k < 3; ++k) {
      const double t = w * 0.05 + k * 0.015;
      stream.push_back(report(0xE5, t, 0, -40.0, 1.0 + 0.05 * w + off, ch));
      stream.push_back(
          report(0xE5, t + 0.002, 1, -48.0, 2.0 - 0.04 * w + off, ch));
    }
  }
  PhaseCalibration cal;
  cal.channel_offsets_rad.assign(20, 0.0);
  cal.channel_offsets_rad[5] = off5;
  cal.channel_offsets_rad[13] = off13;

  const auto run = [&](const PhaseCalibration* c) {
    TagTrackAssociator assoc(cfg, {}, c);
    auto ev = assoc.push(stream);
    const auto tail = assoc.flush();
    ev.insert(ev.end(), tail.begin(), tail.end());
    return events_of_type(ev, PenEventType::kObservation);
  };
  const auto uncal = run(nullptr);
  const auto calib = run(&cal);
  ASSERT_EQ(uncal.size(), 8u);
  ASSERT_EQ(calib.size(), 8u);
  // Window 4 is the first post-hop window.
  EXPECT_FALSE(uncal[4].obs.has_phase);
  EXPECT_TRUE(calib[4].obs.has_phase);
}

}  // namespace
}  // namespace polardraw::core
