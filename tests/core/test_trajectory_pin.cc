// Bit-exact trajectory pin for the per-window front end (windowing,
// spurious-phase rejection, motion classification, distance bounds and
// direction smoothing) on both of its callers:
//
//   * the batch path, PolarDraw::track, on three fixed-seed letters driven
//     exactly as eval::run_trial drives them (one with frequency hopping,
//     which exercises the uncalibrated hop fence), and
//   * the multi-pen path: one seeded Gen2 scene through the associator
//     with per-channel calibration (the calibrated-hop path) into
//     SessionServer::ingest.
//
// The HMM decoder and the counters have their own pins (test_hmm_golden,
// GoldenMetricsTest); this one hashes every bit of the trajectories, the
// per-window diagnostics and the associator's events, so any refactor of
// the front end that moves a single ulp fails here.
//
// A second group pins the streaming decode back end on the synthetic
// decode testbed -- every committed StreamingDecoder position across seeds
// and commit lags, windows whose distance upper bound spans the whole
// board, and streams with an exact tie at every beam cut -- and the
// end-to-end letter/word accuracy, so a change to the candidate-scoring
// kernel or the prune that moves one committed block fails here.
//
// A third pins the two baselines end to end: every position Tagoram and
// RF-IDraw decode for fixed-seed letters through eval::run_trial, so a
// change to their windowing, scoring or beam search shows here.
//
// A fourth pins the simulated inputs no decode pin reaches: the in-air
// drift of the handwriting synthesizer and the WISP accelerometer stream
// with its touch flags.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/association.h"
#include "core/decode_testbed.h"
#include "core/polardraw.h"
#include "core/streaming_decoder.h"
#include "eval/harness.h"
#include "handwriting/synthesizer.h"
#include "rfid/wisp.h"
#include "server/session_server.h"
#include "sim/scene.h"

namespace polardraw {
namespace {

/// FNV-1a over 64-bit words.
class Hash {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(int v) {
    add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  void add(bool v) { add(static_cast<std::uint64_t>(v ? 1 : 0)); }
  void add(const Vec2& p) {
    add(p.x);
    add(p.y);
  }
  void add(const Vec3& p) {
    add(p.x);
    add(p.y);
    add(p.z);
  }
  void add(const core::DirectionEstimate& d) {
    add(static_cast<int>(d.type));
    add(d.direction);
    add(d.alpha_a_rad);
    add(static_cast<int>(d.sense));
    add(static_cast<int>(d.sector));
  }
  void add(const core::DistanceEstimate& d) {
    add(d.lower_m);
    add(d.upper_m);
    add(d.dtheta21);
    add(d.valid);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// PolarDraw::track on the reports eval::run_trial generates for `letter`.
core::TrackingResult track_letter(char letter, std::uint64_t seed,
                                  bool hopping) {
  eval::TrialConfig cfg;
  cfg.system = eval::System::kPolarDraw;
  cfg.seed = seed;
  cfg.scene.reader.frequency_hopping = hopping;
  eval::apply_system_layout(cfg);
  cfg.scene.seed = cfg.seed;
  sim::Scene scene(cfg.scene);
  Rng rng(cfg.seed * 7919 + 13);
  const auto trace =
      handwriting::synthesize(std::string(1, letter), cfg.synth, rng);
  const auto reports = scene.run(trace);
  core::PhaseCalibration cal;
  cal.port_offsets_rad = scene.reader().port_phase_offsets();
  const auto apos = scene.antenna_board_positions();
  const core::PolarDraw tracker(cfg.algo, apos[0], apos[1], 0.12);
  auto res = tracker.track(reports, &cal);

  if (hopping) {
    // The stream must actually cross hop boundaries for the fence to run.
    int hops = 0;
    const auto windows = core::preprocess(reports, cfg.algo, &cal);
    for (std::size_t i = 1; i < windows.size(); ++i) {
      hops += windows[i].channel[0] != windows[i - 1].channel[0] ? 1 : 0;
    }
    EXPECT_GT(hops, 3) << letter;
  }
  // The replica above must be the harness's own tracking path.
  eval::TrialConfig trial = cfg;
  const auto via_harness = eval::run_trial(std::string(1, letter), trial);
  EXPECT_EQ(via_harness.trajectory, res.trajectory) << letter;
  return res;
}

std::uint64_t hash_result(const core::TrackingResult& res) {
  Hash h;
  h.add(static_cast<std::uint64_t>(res.trajectory.size()));
  for (const Vec2& p : res.trajectory) h.add(p);
  h.add(static_cast<std::uint64_t>(res.diagnostics.size()));
  for (const auto& d : res.diagnostics) {
    h.add(d.t_s);
    h.add(d.obs.direction);
    h.add(d.obs.distance);
  }
  h.add(res.rotational_windows);
  h.add(res.translational_windows);
  h.add(res.idle_windows);
  h.add(res.azimuth_correction_rad);
  return h.value();
}

TEST(TrajectoryPin, BatchLettersBitExact) {
  struct Case {
    char letter;
    std::uint64_t seed;
    bool hopping;
    std::uint64_t hash;
    int rotational, translational, idle;
  };
  const Case cases[] = {
      {'A', 41, false, 0xa296eb0e9e1aba82ull, 38, 140, 9},
      {'K', 42, false, 0x6a0aeda206bc406dull, 30, 150, 8},
      {'S', 43, true, 0x84910b194e316becull, 30, 68, 20},
  };
  for (const Case& c : cases) {
    const auto res = track_letter(c.letter, c.seed, c.hopping);
    ASSERT_FALSE(res.trajectory.empty()) << c.letter;
    // One diagnostic per window; the trajectory adds the decode's start
    // point and drops the default 8-window warm-up.
    EXPECT_EQ(res.diagnostics.size(), res.trajectory.size() + 7) << c.letter;
    EXPECT_EQ(res.rotational_windows, c.rotational) << c.letter;
    EXPECT_EQ(res.translational_windows, c.translational) << c.letter;
    EXPECT_EQ(res.idle_windows, c.idle) << c.letter;
    EXPECT_EQ(hash_result(res), c.hash)
        << c.letter << " got 0x" << std::hex << hash_result(res);
  }
}

TEST(TrajectoryPin, MultipenSessionsBitExact) {
  sim::SceneConfig scene_cfg;
  scene_cfg.seed = 23;
  scene_cfg.reader.frequency_hopping = true;
  scene_cfg.reader.auto_select_modulation = false;
  // Enough air budget that most windows carry a phase pair, so the
  // calibrated-hop comparison actually runs.
  scene_cfg.reader.aggregate_read_rate_hz = 800.0;
  sim::Scene scene(scene_cfg);

  constexpr double kDuration = 2.5;
  const std::string letters = "MZOS";
  Rng rng(5);
  std::vector<handwriting::WritingTrace> traces;
  for (std::size_t p = 0; p < letters.size(); ++p) {
    handwriting::SynthesisConfig synth;
    synth.auto_center = false;
    synth.origin = {0.1 + 0.2 * static_cast<double>(p), 0.2};
    traces.push_back(
        handwriting::synthesize(std::string(1, letters[p]), synth, rng));
  }
  std::vector<rfid::TagEntry> tags;
  for (std::size_t p = 0; p < traces.size(); ++p) {
    const auto* trace = &traces[p];
    tags.push_back(rfid::TagEntry{
        0xB0u + static_cast<std::uint32_t>(p),
        [trace](double t) { return sim::tag_at_time(*trace, t); },
        p == 3 ? 0.8 : 0.0, p == 0 ? 1.6 : 1e300});
  }
  const auto reports =
      scene.reader().inventory_population(tags, 0.0, kDuration);
  ASSERT_GT(reports.size(), 200u);
  ASSERT_NE(reports.front().channel, reports.back().channel);

  core::PhaseCalibration cal;
  cal.port_offsets_rad = scene.reader().port_phase_offsets();
  for (int c = 0; c < scene_cfg.reader.hop_channels; ++c) {
    cal.channel_offsets_rad.push_back(
        rfid::Reader::hop_channel_offset_rad(c));
  }
  core::PolarDrawConfig algo;
  algo.gamma_rad = scene_cfg.gamma_rad;
  algo.block_m = 0.01;
  algo.beam_width = 150;
  const auto apos = scene.antenna_board_positions();

  core::TagTrackAssociator assoc(algo, {}, &cal);
  server::SessionServer server(algo, apos[0], apos[1],
                               scene_cfg.antenna_standoff_m);
  std::vector<server::SessionServer::ClosedSession> closed;
  Hash events;
  int observations = 0, phase_observations = 0;
  const auto hash_events = [&](const std::vector<core::PenEvent>& ev) {
    for (const auto& e : ev) {
      if (e.type == core::PenEventType::kObservation) {
        ++observations;
        phase_observations += e.obs.has_phase ? 1 : 0;
      }
      events.add(static_cast<int>(e.type));
      events.add(e.session_id);
      events.add(e.t_s);
      events.add(e.obs.direction);
      events.add(e.obs.distance);
      events.add(e.obs.has_phase);
      events.add(e.azimuth_correction_rad);
    }
  };
  constexpr std::size_t kChunk = 32;
  for (std::size_t i = 0; i < reports.size(); i += kChunk) {
    const rfid::TagReportStream chunk(
        reports.begin() + static_cast<std::ptrdiff_t>(i),
        reports.begin() + static_cast<std::ptrdiff_t>(
                              std::min(i + kChunk, reports.size())));
    const auto ev = assoc.push(chunk);
    hash_events(ev);
    server.ingest(ev, &closed);
    server.pump();
  }
  const auto tail = assoc.flush();
  hash_events(tail);
  server.ingest(tail, &closed);

  Hash sessions;
  sessions.add(static_cast<std::uint64_t>(closed.size()));
  for (const auto& c : closed) {
    sessions.add(c.id);
    sessions.add(static_cast<std::uint64_t>(c.trajectory.size()));
    for (const Vec2& p : c.trajectory) sessions.add(p);
  }
  EXPECT_EQ(observations, 166);
  EXPECT_EQ(phase_observations, 134);
  EXPECT_EQ(closed.size(), 4u);
  EXPECT_EQ(events.value(), 0x3349831bc50ee7b1ull)
      << "got 0x" << std::hex << events.value();
  EXPECT_EQ(sessions.value(), 0xdb4d71c233e4c59bull)
      << "got 0x" << std::hex << sessions.value();
}

/// Streams `tb` through a StreamingDecoder, polling after every push, and
/// hashes every committed position. The per-window renormalization
/// invariant (front max exactly 0 once seeded) is checked on the way.
std::uint64_t hash_stream(const core::DecodeTestbed& tb, std::size_t lag,
                          bool use_hint) {
  const core::PolarDrawConfig cfg;
  core::StreamingConfig scfg;
  scfg.lag_windows = lag;
  core::StreamingDecoder dec(cfg, tb.a1, tb.a2, tb.antenna_z, scfg, nullptr,
                             use_hint ? &tb.start : nullptr);
  std::vector<Vec2> out;
  for (const auto& o : tb.obs) {
    dec.push(o);
    if (dec.seeded()) {
      EXPECT_EQ(dec.front_logp_max(), 0.0f);
    }
    dec.poll(out);
  }
  dec.finish(out);
  EXPECT_EQ(out.size(), tb.obs.size() + 1);
  Hash h;
  h.add(static_cast<std::uint64_t>(out.size()));
  for (const Vec2& p : out) h.add(p);
  return h.value();
}

TEST(TrajectoryPin, StreamingDecoderFuzzBitExact) {
  const std::size_t lags[] = {1, 3, 7, 16, 61};
  const std::uint64_t hashes[] = {
      0x02e3cf25b8977eadull, 0x75ab88032f9afc56ull, 0x31fa03386e591239ull,
      0x7e397f78cbd29653ull, 0x257ffb63b9990371ull, 0x37cd87b2c608a43full,
      0x169a98ee9c05183eull, 0xd09b8f2055c4008aull, 0x3e6df79932af3dfeull,
      0x355426c003ad204dull,
  };
  for (std::uint64_t seed = 20; seed < 30; ++seed) {
    const std::size_t lag = lags[seed % 5];
    const auto tb =
        core::make_decode_testbed(core::PolarDrawConfig{}, 60, seed);
    const std::uint64_t got = hash_stream(tb, lag, seed % 2 == 0);
    EXPECT_EQ(got, hashes[seed - 20])
        << "seed " << seed << " lag " << lag << " got 0x" << std::hex << got;
  }
}

TEST(TrajectoryPin, BoardSpanningUpperBoundBitExact) {
  // A distance upper bound far beyond the board makes every cell a
  // candidate for a few windows; the decode must neither blow up nor
  // change what it commits.
  struct Case {
    double upper_m;
    std::uint64_t hash;
  };
  const Case cases[] = {{5.0, 0xc16d834a4cb9ea2full},
                        {100.0, 0xd30c50fe9e12e02eull}};
  for (const Case& c : cases) {
    auto tb = core::make_decode_testbed(core::PolarDrawConfig{}, 40, 7);
    for (std::size_t i = 18; i <= 21; ++i) {
      tb.obs[i].distance.upper_m = c.upper_m;
    }
    const std::uint64_t got = hash_stream(tb, 16, true);
    EXPECT_EQ(got, c.hash)
        << "upper_m " << c.upper_m << " got 0x" << std::hex << got;
  }
}

TEST(TrajectoryPin, TiedBeamCutBitExact) {
  // Idle, phaseless, direction-free windows score a candidate by its step
  // length alone, so cells at the same lattice distance from a parent tie
  // exactly, and the prune must break a tie at the beam cut by candidate
  // index. With a zero lower bound the best step is no step, so the decode
  // holds still; a lower bound of 1.5 blocks forces a step every window,
  // and the tie order decides the path. On both streams every one of the
  // 115 windows with more candidates than the beam holds has a tie at the
  // cut.
  const core::PolarDrawConfig cfg;
  struct Case {
    double lower_m;
    std::size_t lag;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {0.0, 1, 0x9c8b88cfca5fe065ull},   {0.0, 4, 0x9c8b88cfca5fe065ull},
      {0.0, 121, 0x9c8b88cfca5fe065ull}, {0.006, 1, 0x9a1e60b85a280cc8ull},
      {0.006, 4, 0x9a1e60b85a280cc8ull}, {0.006, 121, 0x9a1e60b85a280cc8ull},
  };
  for (const Case& c : cases) {
    auto tb = core::make_decode_testbed(cfg, 120, 3);
    for (core::TrackObservation& o : tb.obs) {
      o.direction.type = core::MotionType::kIdle;
      o.direction.direction = Vec2{0.0, 0.0};
      o.has_phase = false;
      o.distance.lower_m = c.lower_m;
    }
    const std::uint64_t got = hash_stream(tb, c.lag, true);
    EXPECT_EQ(got, c.hash) << "lower_m " << c.lower_m << " lag " << c.lag
                           << " got 0x" << std::hex << got;
  }
}

TEST(TrajectoryPin, BaselinesBitExact) {
  struct Case {
    eval::System system;
    char letter;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {eval::System::kTagoram2, 'C', 61, 0x45223c3033e7af15ull},
      {eval::System::kTagoram2, 'M', 62, 0xbc3095a6c3acfcafull},
      {eval::System::kTagoram2, 'S', 63, 0x8defc99459e95bd9ull},
      {eval::System::kTagoram4, 'C', 61, 0x11cdcbc1d88bba4full},
      {eval::System::kTagoram4, 'M', 62, 0xcac52ef76d554d7cull},
      {eval::System::kTagoram4, 'S', 63, 0x1500354c0dc52a7bull},
      {eval::System::kRfIdraw4, 'C', 61, 0x7f31f8b5b94150cdull},
      {eval::System::kRfIdraw4, 'M', 62, 0xa15eed9c8b87b3e4ull},
      {eval::System::kRfIdraw4, 'S', 63, 0x67e36701ae65edb4ull},
  };
  for (const Case& c : cases) {
    eval::TrialConfig cfg;
    cfg.system = c.system;
    cfg.seed = c.seed;
    const auto res = eval::run_trial(std::string(1, c.letter), cfg);
    ASSERT_GT(res.trajectory.size(), 10u) << c.letter;
    Hash h;
    h.add(static_cast<std::uint64_t>(res.trajectory.size()));
    for (const Vec2& p : res.trajectory) h.add(p);
    EXPECT_EQ(h.value(), c.hash) << eval::to_string(c.system) << " "
                                 << c.letter << " got 0x" << std::hex
                                 << h.value();
  }
}

TEST(TrajectoryPin, InAirTraceAndWispStreamBitExact) {
  // Every sample of an in-air trace: the kinematics, the wrist and the
  // out-of-plane and in-plane drift random walks.
  Hash air;
  handwriting::SynthesisConfig synth;
  synth.in_air = true;
  Rng rng(17);
  for (const char* letters : {"G", "W"}) {
    const auto trace = handwriting::synthesize(letters, synth, rng);
    air.add(static_cast<std::uint64_t>(trace.samples.size()));
    for (const handwriting::TraceSample& s : trace.samples) {
      air.add(s.t_s);
      air.add(s.pen_tip);
      air.add(s.tag_pos);
      air.add(s.angles.elevation_rad);
      air.add(s.angles.azimuth_rad);
      air.add(s.pen_down);
    }
  }
  EXPECT_EQ(air.value(), 0xc369aa74b9d5147bull) << "got 0x" << std::hex << air.value();

  // The accelerometer stream and touch flags of one on-board letter.
  Rng board_rng(18);
  const auto trace =
      handwriting::synthesize("H", handwriting::SynthesisConfig{}, board_rng);
  Rng wisp_rng(19);
  const auto accel = rfid::simulate_wisp(trace, wisp_rng);
  const auto touch = rfid::detect_touch(accel, core::PolarDrawConfig{}.window_s);
  int touching = 0;
  for (const bool t : touch) touching += t ? 1 : 0;
  EXPECT_GT(touching, 0);
  EXPECT_LT(touching, static_cast<int>(touch.size()));
  Hash wisp;
  wisp.add(static_cast<std::uint64_t>(accel.size()));
  for (const rfid::AccelSample& a : accel) {
    wisp.add(a.t_s);
    wisp.add(a.accel);
  }
  wisp.add(static_cast<std::uint64_t>(touch.size()));
  for (const bool t : touch) wisp.add(t);
  EXPECT_EQ(wisp.value(), 0x2bd5f6d43344fba3ull) << "got 0x" << std::hex << wisp.value();
}

TEST(TrajectoryPin, RecognitionAccuracyExact) {
  // The fig. 13 (letters) / fig. 18 (words) metric end to end at small
  // reps: synthesis, RFID sim, tracking and classification.
  eval::TrialConfig cfg;
  cfg.seed = 99;
  eval::apply_system_layout(cfg);
  const double letters = eval::letter_accuracy("AOXU", 2, cfg);
  const double words = eval::word_accuracy(2, 1, cfg);
  EXPECT_EQ(letters, 0.625) << std::hexfloat << letters;
  EXPECT_EQ(words, 0.9) << std::hexfloat << words;
}

}  // namespace
}  // namespace polardraw
