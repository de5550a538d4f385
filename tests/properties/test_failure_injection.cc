// Failure-injection tests: the pipeline must degrade gracefully, never
// crash or emit garbage structure, under hostile inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/angles.h"
#include "core/association.h"
#include "core/decode_testbed.h"
#include "core/polardraw.h"
#include "core/streaming_decoder.h"
#include "eval/harness.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "recognition/classifier.h"
#include "server/session_server.h"
#include "sim/scene.h"

namespace polardraw {
namespace {

core::PolarDraw default_tracker() {
  core::PolarDrawConfig cfg;
  return core::PolarDraw(cfg, {0.22, 1.25}, {0.78, 1.25}, 0.12);
}

rfid::TagReport report(double t, int ant, double rss_dbm, double phase_rad) {
  rfid::TagReport r;
  r.timestamp_s = t;
  r.antenna_id = ant;
  r.rss_dbm = rss_dbm;
  r.phase_rad = wrap_2pi(phase_rad);
  return r;
}

TEST(FailureInjection, EmptyReportStream) {
  const auto tracker = default_tracker();
  const auto res = tracker.track({});
  EXPECT_TRUE(res.trajectory.empty());
}

TEST(FailureInjection, SingleReport) {
  const auto tracker = default_tracker();
  const auto res = tracker.track({report(0.0, 0, -40.0, 1.0)});
  // One window cannot seed a chain; no crash, trivial output.
  EXPECT_LE(res.trajectory.size(), 2u);
}

TEST(FailureInjection, OneAntennaSilentForever) {
  const auto tracker = default_tracker();
  rfid::TagReportStream reports;
  for (int i = 0; i < 200; ++i) {
    reports.push_back(report(i * 0.01, 0, -40.0, 0.3 + 0.01 * i));
  }
  const auto res = tracker.track(reports);
  // Without the second antenna there is no direction/hyperbola info;
  // the tracker must still return a bounded trajectory.
  EXPECT_FALSE(res.trajectory.empty());
  for (const auto& p : res.trajectory) {
    EXPECT_GE(p.x, -0.1);
    EXPECT_LE(p.x, 1.1);
  }
}

TEST(FailureInjection, AllPhasesSpurious) {
  core::PolarDrawConfig cfg;
  cfg.spurious_phase_threshold_rad = 1e-6;  // reject every phase delta
  core::PolarDraw tracker(cfg, {0.22, 1.25}, {0.78, 1.25}, 0.12);
  rfid::TagReportStream reports;
  Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    reports.push_back(
        report(i * 0.005, i % 2, -40.0, rng.uniform(0.0, kTwoPi)));
  }
  const auto res = tracker.track(reports);
  EXPECT_FALSE(res.trajectory.empty());
}

TEST(FailureInjection, ConstantEverything) {
  // A frozen tag: constant RSS/phase. Expect an (almost) stationary track.
  const auto tracker = default_tracker();
  rfid::TagReportStream reports;
  for (int i = 0; i < 400; ++i) {
    reports.push_back(report(i * 0.005, i % 2, -40.0, 1.0));
  }
  const auto res = tracker.track(reports);
  ASSERT_GT(res.trajectory.size(), 10u);
  double travel = 0.0;
  for (std::size_t i = 1; i < res.trajectory.size(); ++i) {
    travel += res.trajectory[i].dist(res.trajectory[i - 1]);
  }
  EXPECT_LT(travel, 0.05);
}

TEST(FailureInjection, OutOfOrderAntennaIds) {
  const auto tracker = default_tracker();
  rfid::TagReportStream reports;
  for (int i = 0; i < 100; ++i) {
    reports.push_back(report(i * 0.01, 7, -40.0, 1.0));    // bogus port
    reports.push_back(report(i * 0.01, -3, -40.0, 1.0));   // bogus port
    reports.push_back(report(i * 0.01, i % 2, -40.0, 1.0));
  }
  EXPECT_NO_THROW(tracker.track(reports));
}

TEST(FailureInjection, ExtremeRssValues) {
  const auto tracker = default_tracker();
  rfid::TagReportStream reports;
  for (int i = 0; i < 200; ++i) {
    const double rss = i % 3 == 0 ? -149.0 : (i % 3 == 1 ? 20.0 : -40.0);
    reports.push_back(report(i * 0.01, i % 2, rss, 1.0 + 0.02 * i));
  }
  const auto res = tracker.track(reports);
  EXPECT_FALSE(res.trajectory.empty());
}

/// A writing-like single-pen stream: both antennas, slewing phase and
/// RSS, `seconds` long at 200 reads/s.
rfid::TagReportStream pen_stream(std::uint32_t epc, double seconds) {
  rfid::TagReportStream out;
  for (int i = 0; i * 0.005 < seconds; ++i) {
    const double t = i * 0.005;
    const int ant = i % 2;
    const double rss = (ant == 0 ? -40.0 : -46.0) + 3.0 * std::sin(t * 2.1);
    const double phase = ant == 0 ? 0.8 + 1.7 * t : 2.0 - 1.3 * t;
    auto r = report(t, ant, rss, phase);
    r.epc = epc;
    out.push_back(r);
  }
  return out;
}

std::vector<core::PenEvent> run_associator(const rfid::TagReportStream& s,
                                           std::vector<core::PenEvent>* tail) {
  core::AssociatorConfig acfg;
  acfg.idle_close_s = 0.5;
  core::TagTrackAssociator assoc(core::PolarDrawConfig{}, acfg);
  auto events = assoc.push(s);
  *tail = assoc.flush();
  return events;
}

void expect_same_events(const std::vector<core::PenEvent>& got,
                        const std::vector<core::PenEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(static_cast<int>(got[i].type), static_cast<int>(want[i].type));
    EXPECT_EQ(got[i].session_id, want[i].session_id) << i;
    EXPECT_EQ(got[i].t_s, want[i].t_s) << i;
    EXPECT_EQ(got[i].obs.has_phase, want[i].obs.has_phase) << i;
    EXPECT_EQ(got[i].obs.direction.direction, want[i].obs.direction.direction)
        << i;
    EXPECT_EQ(got[i].obs.distance.lower_m, want[i].obs.distance.lower_m) << i;
    EXPECT_EQ(got[i].obs.distance.dtheta21, want[i].obs.distance.dtheta21)
        << i;
    EXPECT_EQ(got[i].azimuth_correction_rad, want[i].azimuth_correction_rad)
        << i;
  }
}

TEST(FailureInjection, NonFiniteReportFieldsAreDropped) {
  // A report with a NaN/inf timestamp, RSS or phase must vanish without a
  // trace in both pipelines: the output equals that of the same stream
  // with the report removed, and every drop is counted once. Cases: a NaN
  // first report (would become the window origin), a NaN mid-stream
  // timestamp (would be bucketed through an undefined cast), a NaN phase
  // (would poison every later unwrapped phase), an inf RSS, and -- for
  // the associator -- a NaN-timestamp last report of a pen (would stop
  // its idle close forever).
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(true);

  // --- Batch: PolarDraw::track ---------------------------------------------
  const auto clean = pen_stream(0xA1, 3.0);
  auto dirty = clean;
  auto bad = clean[0];
  bad.timestamp_s = kNaN;
  dirty.insert(dirty.begin(), bad);
  bad = clean[300];
  bad.timestamp_s = kNaN;
  dirty.insert(dirty.begin() + 300, bad);
  bad = clean[150];
  bad.phase_rad = kNaN;
  dirty.insert(dirty.begin() + 150, bad);
  bad = clean[450];
  bad.rss_dbm = kInf;
  dirty.insert(dirty.begin() + 450, bad);

  const auto tracker = default_tracker();
  const auto want = tracker.track(clean);
  reg.reset();
  const auto got = tracker.track(dirty);
  EXPECT_EQ(reg.snapshot().counter("preprocess.nonfinite_reports"), 4u);
  ASSERT_FALSE(want.trajectory.empty());
  EXPECT_EQ(got.trajectory, want.trajectory);
  ASSERT_EQ(got.diagnostics.size(), want.diagnostics.size());
  for (std::size_t i = 0; i < got.diagnostics.size(); ++i) {
    EXPECT_EQ(got.diagnostics[i].t_s, want.diagnostics[i].t_s) << i;
    EXPECT_EQ(static_cast<int>(got.diagnostics[i].obs.direction.type),
              static_cast<int>(want.diagnostics[i].obs.direction.type))
        << i;
    EXPECT_EQ(got.diagnostics[i].obs.distance.dtheta21,
              want.diagnostics[i].obs.distance.dtheta21)
        << i;
  }

  // --- Associator: TagTrackAssociator --------------------------------------
  // Pen A writes for 1 s; pen B keeps the stream alive for 3 s.
  rfid::TagReportStream two = pen_stream(0xA1, 1.0);
  const auto b = pen_stream(0xB2, 3.0);
  two.insert(two.end(), b.begin(), b.end());
  std::stable_sort(two.begin(), two.end(),
                   [](const rfid::TagReport& x, const rfid::TagReport& y) {
                     return x.timestamp_s < y.timestamp_s;
                   });
  rfid::TagReportStream two_dirty = two;
  std::size_t last_a = 0;
  for (std::size_t i = 0; i < two_dirty.size(); ++i) {
    if (two_dirty[i].epc == 0xA1) last_a = i;
  }
  bad = two_dirty[last_a];
  bad.timestamp_s = kNaN;  // pen A's last report
  two_dirty.insert(two_dirty.begin() + static_cast<std::ptrdiff_t>(last_a) + 1,
                   bad);
  bad = two_dirty[400];
  bad.phase_rad = kNaN;
  two_dirty.insert(two_dirty.begin() + 400, bad);
  bad = two_dirty[0];
  bad.timestamp_s = kNaN;  // the stream's first report
  two_dirty.insert(two_dirty.begin(), bad);

  std::vector<core::PenEvent> want_tail, got_tail;
  const auto want_events = run_associator(two, &want_tail);
  reg.reset();
  const auto got_events = run_associator(two_dirty, &got_tail);
  EXPECT_EQ(reg.snapshot().counter("preprocess.nonfinite_reports"), 3u);
  expect_same_events(got_events, want_events);
  expect_same_events(got_tail, want_tail);
  // Pen A idle-closed while pen B was still reporting, not at flush.
  bool a_closed_live = false;
  for (const auto& e : got_events) {
    a_closed_live |= e.type == core::PenEventType::kClose && e.epc == 0xA1;
  }
  EXPECT_TRUE(a_closed_live);
  std::size_t observations = 0;
  for (const auto& e : got_events) {
    observations += e.type == core::PenEventType::kObservation ? 1 : 0;
  }
  EXPECT_GT(observations, 60u);

  reg.reset();
  reg.set_enabled(false);
}

TEST(FailureInjection, HugeOrNonFiniteDistanceBoundStaysOnTheBoard) {
  // A window's distance upper bound sets the decode's reach in blocks, and
  // SessionServer::submit passes a client's observation through unchecked.
  // A huge bound must open the whole board to that step, and the decoder
  // decodes a non-finite one as the unobserved window; neither may cause
  // an out-of-range cast, an allocation failure or a starved window, and
  // every committed position stays finite and on the board.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const core::PolarDrawConfig cfg;
  const auto tb = core::make_decode_testbed(cfg, 20, 7);
  const auto cells = static_cast<std::uint64_t>(
      core::PhaseField(cfg, tb.a1, tb.a2, tb.antenna_z).cells());
  const auto expect_on_board = [&](const std::vector<Vec2>& traj) {
    ASSERT_EQ(traj.size(), tb.obs.size() + 1);
    for (const Vec2& p : traj) {
      ASSERT_TRUE(std::isfinite(p.x) && std::isfinite(p.y));
      EXPECT_GE(p.x, 0.0);
      EXPECT_LE(p.x, cfg.board_width_m);
      EXPECT_GE(p.y, 0.0);
      EXPECT_LE(p.y, cfg.board_height_m);
    }
  };
  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(true);
  const auto decode = [&](const std::vector<core::TrackObservation>& obs) {
    reg.reset();
    core::StreamingConfig scfg;
    scfg.lag_windows = 4;
    core::StreamingDecoder dec(cfg, tb.a1, tb.a2, tb.antenna_z, scfg, nullptr,
                               &tb.start);
    std::vector<Vec2> out;
    for (const auto& o : obs) {
      dec.push(o);
      dec.poll(out);
    }
    dec.finish(out);
    expect_on_board(out);
    return reg.snapshot();
  };
  const std::uint64_t unchanged =
      decode(tb.obs).counter("hmm.beam_expansions");
  for (const double bound : {1e9, 1e300, kInf, kNaN}) {
    SCOPED_TRACE(::testing::Message() << "upper_m " << bound);
    auto obs = tb.obs;
    obs[10].distance.upper_m = bound;
    obs[11].distance.upper_m = bound;

    const auto snap = decode(obs);
    EXPECT_EQ(snap.counter("hmm.starved_windows"), 0u);
    if (std::isfinite(bound)) {
      // Each of the two windows opens the whole board: at least one
      // expansion per cell more than the unchanged stream, each.
      EXPECT_GE(snap.counter("hmm.beam_expansions"), unchanged + 2 * cells);
    } else {
      EXPECT_EQ(snap.counter("hmm.nonfinite_observations"), 2u);
    }

    server::SessionServer server(cfg, tb.a1, tb.a2, tb.antenna_z);
    server.open(1, &tb.start);
    for (const auto& o : obs) {
      ASSERT_TRUE(server.submit(1, o));
      server.pump();
    }
    expect_on_board(server.close(1));
  }
  reg.reset();
  reg.set_enabled(false);
}

TEST(FailureInjection, NonFiniteObservationDecodesAsUnobservedWindow) {
  // SessionServer::submit takes a client's finished observation and queues
  // it as given. A NaN or inf distance bound, phase difference or
  // direction component reaching the kernel would turn its beam scores NaN
  // for the rest of the session. The session's decoder must decode such a
  // window as one without phase (idle direction, speed-limit bound): its
  // trajectory equals an isolated decode of the stream with that window
  // replaced, and the replacement is counted once.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr std::size_t kBad = 18;
  const core::PolarDrawConfig cfg;
  const auto tb = core::make_decode_testbed(cfg, 40, 7);
  server::SessionServerConfig server_cfg;
  server_cfg.stream.lag_windows = 8;

  auto replaced = tb.obs;
  replaced[kBad] = core::TrackObservation{};
  replaced[kBad].distance.upper_m = cfg.vmax_mps * cfg.window_s;
  core::StreamingDecoder dec(cfg, tb.a1, tb.a2, tb.antenna_z,
                             server_cfg.stream, nullptr, &tb.start);
  std::vector<Vec2> want;
  for (const auto& o : replaced) {
    dec.push(o);
    dec.poll(want);
  }
  dec.finish(want);
  ASSERT_EQ(want.size(), tb.obs.size() + 1);

  using Field = double& (*)(core::TrackObservation&);
  const std::pair<const char*, Field> fields[] = {
      {"lower_m",
       [](core::TrackObservation& o) -> double& { return o.distance.lower_m; }},
      {"upper_m",
       [](core::TrackObservation& o) -> double& { return o.distance.upper_m; }},
      {"dtheta21",
       [](core::TrackObservation& o) -> double& {
         return o.distance.dtheta21;
       }},
      {"direction.x",
       [](core::TrackObservation& o) -> double& {
         return o.direction.direction.x;
       }},
      {"direction.y",
       [](core::TrackObservation& o) -> double& {
         return o.direction.direction.y;
       }},
  };
  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(true);
  for (const auto& [name, field] : fields) {
    for (const double bad : {kNaN, kInf, -kInf}) {
      SCOPED_TRACE(::testing::Message() << name << " = " << bad);
      auto obs = tb.obs;
      field(obs[kBad]) = bad;
      reg.reset();
      server::SessionServer server(cfg, tb.a1, tb.a2, tb.antenna_z,
                                   server_cfg);
      server.open(1, &tb.start);
      for (const auto& o : obs) {
        ASSERT_TRUE(server.submit(1, o));
        server.pump();
      }
      const std::vector<Vec2> got = server.close(1);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(Vec2)),
                0);
      EXPECT_EQ(reg.snapshot().counter("hmm.nonfinite_observations"), 1u);
    }
  }
  reg.reset();
  reg.set_enabled(false);
}

TEST(FailureInjection, NonFiniteOrHugeHintSeedsOnTheBoard) {
  // SessionServer::open passes a client's hint straight to the decoder,
  // which screens it and turns it into a seed cell. A NaN or infinite coordinate names no
  // cell, so the decoder must wait for its first phase window exactly as
  // if unhinted. A huge finite hint seeds at the board cell it points to,
  // clamped to the grid (never through an out-of-range float-to-int
  // cast).
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const core::PolarDrawConfig cfg;
  auto tb = core::make_decode_testbed(cfg, 40, 7);
  // Two phaseless windows first, so the wait for a phase window shows.
  tb.obs[0].has_phase = false;
  tb.obs[1].has_phase = false;
  std::size_t first_phase = 2;
  while (!tb.obs[first_phase].has_phase) ++first_phase;
  core::StreamingConfig scfg;
  scfg.lag_windows = 4;
  const auto decode = [&](const Vec2* hint) {
    const bool seeds_at_once = hint != nullptr && std::isfinite(hint->x) &&
                               std::isfinite(hint->y);
    core::StreamingDecoder dec(cfg, tb.a1, tb.a2, tb.antenna_z, scfg, nullptr,
                               hint);
    std::vector<Vec2> out;
    for (std::size_t w = 0; w < tb.obs.size(); ++w) {
      EXPECT_EQ(dec.seeded(), seeds_at_once || w > first_phase)
          << "before window " << w;
      dec.push(tb.obs[w]);
      dec.poll(out);
    }
    dec.finish(out);
    return out;
  };
  const auto expect_same = [](const std::vector<Vec2>& got,
                              const std::vector<Vec2>& want) {
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(Vec2)),
              0);
  };

  const std::vector<Vec2> unhinted = decode(nullptr);
  for (const Vec2 hint : {Vec2{kNaN, 0.3}, Vec2{0.5, kNaN}, Vec2{kInf, 0.3},
                          Vec2{0.5, -kInf}, Vec2{-kInf, kNaN}}) {
    SCOPED_TRACE(::testing::Message() << "hint " << hint.x << ", " << hint.y);
    expect_same(decode(&hint), unhinted);
  }

  const core::PhaseField field(cfg, tb.a1, tb.a2, tb.antenna_z);
  const Vec2 low_right = field.block_center(field.cols() - 1, 0);
  const Vec2 high_left = field.block_center(0, field.rows() - 1);
  {
    SCOPED_TRACE("hint (1e300, -1e300)");
    const Vec2 huge{1e300, -1e300};
    expect_same(decode(&huge), decode(&low_right));
  }
  {
    SCOPED_TRACE("hint (-1e300, 1e300)");
    const Vec2 huge{-1e300, 1e300};
    expect_same(decode(&huge), decode(&high_left));
  }

  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(true);
  reg.reset();
  server::SessionServer server(cfg, tb.a1, tb.a2, tb.antenna_z);
  const Vec2 nan_hint{kNaN, kNaN};
  std::ostringstream log_lines;
  obs::Logger& lg = obs::Logger::global();
  lg.set_sink(&log_lines);
  server.open(1, &nan_hint);
  server.open(2, &tb.start);
  lg.set_sink(nullptr);
  // open() logs whether the session's decoder seeded on its hint.
  EXPECT_NE(log_lines.str().find("\"session\":1,\"hinted\":false"),
            std::string::npos);
  EXPECT_NE(log_lines.str().find("\"session\":2,\"hinted\":true"),
            std::string::npos);
  // The decoders tally the hint with their other hmm.* counters, at close.
  server.close(1);
  server.close(2);
  EXPECT_EQ(reg.snapshot().counter("hmm.nonfinite_hints"), 1u);
  reg.reset();
  reg.set_enabled(false);
}

TEST(FailureInjection, DeafTagProducesNoReads) {
  sim::SceneConfig cfg;
  cfg.seed = 5;
  sim::Scene scene(cfg);
  handwriting::WritingTrace trace;
  for (int i = 0; i <= 100; ++i) {
    handwriting::TraceSample s;
    s.t_s = i * 0.01;
    s.pen_tip = Vec3{0.5, 0.25, 0.0};
    s.angles = {deg2rad(30.0), deg2rad(90.0)};
    s.tag_pos = s.pen_tip;
    trace.samples.push_back(s);
  }
  // Make the chip absurdly insensitive so every activation fails.
  auto tag_fn = [&trace](double t) {
    auto tag = sim::tag_at_time(trace, t);
    tag.sensitivity_dbm = 100.0;
    return tag;
  };
  scene.reader().select_modulation(tag_fn);
  const auto reports = scene.reader().inventory(tag_fn, 0.0, 1.0);
  EXPECT_TRUE(reports.empty());
}

TEST(FailureInjection, AnechoicChamberStillWorks) {
  // Zero clutter: no multipath at all. Accuracy should not collapse.
  eval::TrialConfig cfg;
  cfg.system = eval::System::kPolarDraw;
  cfg.seed = 77;
  cfg.scene.clutter_count = 0;
  const auto res = eval::run_trial("O", cfg);
  EXPECT_LT(res.procrustes_m, 0.12);
}

TEST(FailureInjection, HeavyClutterDegradesButSurvives) {
  eval::TrialConfig cfg;
  cfg.system = eval::System::kPolarDraw;
  cfg.seed = 78;
  cfg.scene.clutter_count = 20;
  const auto res = eval::run_trial("O", cfg);
  EXPECT_FALSE(res.trajectory.empty());
  EXPECT_LT(res.procrustes_m, 0.30);
}

TEST(FailureInjection, TinyWritingStillTracked) {
  eval::TrialConfig cfg;
  cfg.system = eval::System::kPolarDraw;
  cfg.seed = 79;
  cfg.synth.letter_size_m = 0.05;  // 5 cm letters
  const auto res = eval::run_trial("O", cfg);
  EXPECT_FALSE(res.trajectory.empty());
}

TEST(FailureInjection, ClassifierHandlesWildInput) {
  const recognition::LetterClassifier cls;
  Rng rng(5);
  std::vector<Vec2> wild;
  for (int i = 0; i < 500; ++i) {
    wild.push_back({rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0)});
  }
  const auto r = cls.classify(wild);
  EXPECT_NE(r.letter, 0);
  EXPECT_GE(r.score, 0.0);
}

}  // namespace
}  // namespace polardraw
