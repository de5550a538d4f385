// Fixed-lag equivalence suite for the streaming decoder (DESIGN.md §13).
//
// The contract under test: with lag >= sequence length, push-all +
// finish() is bit-identical to the batch decode (decode_full_lag, lag
// n + 1) on the same observations (same testbed configs as
// tests/core/test_hmm_golden.cc);
// committed positions are frozen at push time, so the emitted stream does
// not depend on poll cadence and an already-polled prefix never changes;
// and shrinking the lag degrades commit accuracy in a bounded
// (tolerance-laddered) way. Decoders share their thread's decode scratch,
// so interleaving them, on one thread or across a pool, must change no
// trajectory and no hmm.* tally. push() decodes a window that is not
// finite as the unobserved window, and a window that leaves no candidate
// holds the front's best state.
#include "core/streaming_decoder.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/decode_testbed.h"
#include "obs/metrics.h"

namespace polardraw::core {
namespace {

struct GoldenCase {
  PolarDrawConfig cfg;
  int n_windows;
  std::uint64_t seed;
  bool use_hint;
};

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  cases.push_back({PolarDrawConfig{}, 100, 1, true});
  cases.push_back({PolarDrawConfig{}, 100, 2, false});
  PolarDrawConfig small;
  small.board_width_m = 0.5;
  small.board_height_m = 0.4;
  small.block_m = 0.005;
  small.beam_width = 200;
  small.hyperbola_sharpness = 1.0;
  cases.push_back({small, 80, 3, true});
  PolarDrawConfig greedy;
  greedy.use_viterbi = false;
  cases.push_back({greedy, 60, 4, true});
  return cases;
}

/// Streams the testbed through a decoder with the given lag, polling after
/// every push, and returns the full committed trajectory.
std::vector<Vec2> stream_decode(const GoldenCase& gc, std::size_t lag) {
  const auto tb = make_decode_testbed(gc.cfg, gc.n_windows, gc.seed);
  StreamingConfig scfg;
  scfg.lag_windows = lag;
  StreamingDecoder dec(gc.cfg, tb.a1, tb.a2, tb.antenna_z, scfg, nullptr,
                       gc.use_hint ? &tb.start : nullptr);
  std::vector<Vec2> out;
  for (const auto& o : tb.obs) {
    dec.push(o);
    dec.poll(out);
  }
  dec.finish(out);
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

double mean_deviation(const std::vector<Vec2>& a, const std::vector<Vec2>& b) {
  EXPECT_EQ(a.size(), b.size());
  if (a.empty()) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i].dist(b[i]);
  return sum / static_cast<double>(a.size());
}

TEST(StreamingDecoder, LagAtLeastLenBitIdenticalToBatchOnGoldenTraces) {
  for (const GoldenCase& gc : golden_cases()) {
    const auto tb = make_decode_testbed(gc.cfg, gc.n_windows, gc.seed);
    const auto batch = decode_full_lag(gc.cfg, tb.a1, tb.a2, tb.antenna_z,
                                       tb.obs,
                                       gc.use_hint ? &tb.start : nullptr);
    const auto streamed =
        stream_decode(gc, static_cast<std::size_t>(gc.n_windows));
    expect_bit_identical(streamed, batch);
  }
}

TEST(StreamingDecoder, PollCadenceDoesNotChangeCommittedValues) {
  const GoldenCase gc{PolarDrawConfig{}, 100, 1, true};
  const auto tb = make_decode_testbed(gc.cfg, gc.n_windows, gc.seed);
  StreamingConfig scfg;
  scfg.lag_windows = 8;

  // Cadence A: poll after every push. Cadence B: poll once at the end.
  StreamingDecoder every(gc.cfg, tb.a1, tb.a2, tb.antenna_z, scfg, nullptr,
                         &tb.start);
  StreamingDecoder once(gc.cfg, tb.a1, tb.a2, tb.antenna_z, scfg, nullptr,
                        &tb.start);
  std::vector<Vec2> out_every, out_once;
  for (const auto& o : tb.obs) {
    every.push(o);
    every.poll(out_every);
    once.push(o);
  }
  every.finish(out_every);
  once.finish(out_once);
  expect_bit_identical(out_every, out_once);
}

TEST(StreamingDecoder, PolledPrefixIsStable) {
  // Positions already drained by poll() must reappear nowhere: finish()
  // only appends, so the concatenated incremental stream *is* the final
  // trajectory prefix by prefix.
  const GoldenCase gc{PolarDrawConfig{}, 100, 2, false};
  const auto tb = make_decode_testbed(gc.cfg, gc.n_windows, gc.seed);
  StreamingConfig scfg;
  scfg.lag_windows = 12;
  StreamingDecoder dec(gc.cfg, tb.a1, tb.a2, tb.antenna_z, scfg);
  std::vector<Vec2> drained;
  std::size_t last_size = 0;
  for (const auto& o : tb.obs) {
    dec.push(o);
    std::vector<Vec2> snapshot = drained;
    dec.poll(drained);
    // The previously drained prefix is untouched by later polls.
    ASSERT_GE(drained.size(), last_size);
    for (std::size_t i = 0; i < last_size; ++i) {
      EXPECT_EQ(drained[i].x, snapshot[i].x);
      EXPECT_EQ(drained[i].y, snapshot[i].y);
    }
    last_size = drained.size();
  }
  dec.finish(drained);
  EXPECT_EQ(drained.size(), static_cast<std::size_t>(gc.n_windows) + 1);
  EXPECT_EQ(dec.committed(), drained.size());
}

TEST(StreamingDecoder, ToleranceLadderBoundsAccuracyVsLag) {
  // Shrinking the lag commits positions from a less-informed beam front;
  // the mean deviation from the batch decode must stay inside a ladder of
  // bounds that tightens as the lag grows and reaches zero at full lag.
  const GoldenCase gc{PolarDrawConfig{}, 100, 1, true};
  const auto tb = make_decode_testbed(gc.cfg, gc.n_windows, gc.seed);
  const auto batch =
      decode_full_lag(gc.cfg, tb.a1, tb.a2, tb.antenna_z, tb.obs, &tb.start);

  const struct {
    std::size_t lag;
    double bound_m;
  } ladder[] = {
      {4, 0.10},
      {8, 0.06},
      {16, 0.04},
      {100, 0.0},
  };
  double prev_bound = 1e9;
  for (const auto& rung : ladder) {
    const auto streamed = stream_decode(gc, rung.lag);
    const double dev = mean_deviation(streamed, batch);
    EXPECT_LE(dev, rung.bound_m) << "lag " << rung.lag;
    EXPECT_LE(rung.bound_m, prev_bound);  // the ladder itself tightens
    prev_bound = rung.bound_m;
  }
}

TEST(StreamingDecoder, LagOneMatchesBatchTail) {
  // The minimum legal lag: every commit reaches the beam front, so the
  // front is the only step left live between windows.
  const GoldenCase gc{PolarDrawConfig{}, 100, 1, true};
  const auto tb = make_decode_testbed(gc.cfg, gc.n_windows, gc.seed);
  const auto batch =
      decode_full_lag(gc.cfg, tb.a1, tb.a2, tb.antenna_z, tb.obs, &tb.start);
  const auto streamed = stream_decode(gc, 1);
  ASSERT_EQ(streamed.size(), batch.size());
  // lag 1 commits from a one-window-lookahead front, so values may differ
  // from batch -- but they must stay on the board and the final tail
  // (committed by finish() from the full front) matches batch exactly.
  for (const Vec2& p : streamed) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, gc.cfg.board_width_m);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, gc.cfg.board_height_m);
  }
  EXPECT_EQ(streamed.back().x, batch.back().x);
  EXPECT_EQ(streamed.back().y, batch.back().y);
}

TEST(StreamingDecoder, MidStreamSeedReportsRootPositionAndBackfills) {
  // Strip phase from the leading windows: the decoder must wait, seed from
  // the first phase window, backfill the prefix with the seed position,
  // report the seed root at the prefix length (the latency accounting in
  // the session server keys off it), and stay bit-identical to the batch
  // decode at full lag.
  const GoldenCase gc{PolarDrawConfig{}, 60, 5, false};
  auto tb = make_decode_testbed(gc.cfg, gc.n_windows, gc.seed);
  const std::size_t kPrefix = 3;
  for (std::size_t i = 0; i < kPrefix; ++i) tb.obs[i].has_phase = false;
  // The testbed drops phase at random, so the real prefix may be longer.
  std::size_t first_phase = kPrefix;
  while (first_phase < tb.obs.size() && !tb.obs[first_phase].has_phase) {
    ++first_phase;
  }
  ASSERT_LT(first_phase, tb.obs.size()) << "testbed produced no phase window";

  StreamingConfig scfg;
  scfg.lag_windows = static_cast<std::size_t>(gc.n_windows) + 1;
  StreamingDecoder dec(gc.cfg, tb.a1, tb.a2, tb.antenna_z, scfg);
  std::vector<Vec2> out;
  for (std::size_t i = 0; i < tb.obs.size(); ++i) {
    dec.push(tb.obs[i]);
    EXPECT_EQ(dec.seeded(), i >= first_phase) << "window " << i;
  }
  dec.finish(out);
  EXPECT_EQ(dec.seed_root_position(), first_phase);
  ASSERT_EQ(out.size(), tb.obs.size() + 1);
  // The backfilled prefix and the root all carry the seed position.
  for (std::size_t p = 0; p < first_phase; ++p) {
    EXPECT_EQ(out[p].x, out[first_phase].x) << "position " << p;
    EXPECT_EQ(out[p].y, out[first_phase].y) << "position " << p;
  }
  expect_bit_identical(
      out, decode_full_lag(gc.cfg, tb.a1, tb.a2, tb.antenna_z, tb.obs));
}

TEST(StreamingDecoder, PhaselessStreamFallsBackToBatchBehavior) {
  // No hint and not a single phase window: finish() must reproduce the
  // batch decode's legacy board-center seeding exactly.
  PolarDrawConfig cfg;
  cfg.board_width_m = 0.4;
  cfg.board_height_m = 0.3;
  cfg.block_m = 0.01;
  cfg.beam_width = 200;
  TrackObservation o;
  o.direction.type = MotionType::kTranslational;
  o.direction.direction = Vec2{1.0, 0.0};
  o.distance.lower_m = 0.004;
  o.distance.upper_m = 0.01;
  o.distance.valid = true;
  o.has_phase = false;
  const std::vector<TrackObservation> obs(12, o);

  const Vec2 a1{0.1, 0.35}, a2{0.3, 0.35};
  const auto batch = decode_full_lag(cfg, a1, a2, 0.12, obs);

  StreamingConfig scfg;
  scfg.lag_windows = 4;
  StreamingDecoder dec(cfg, a1, a2, 0.12, scfg);
  std::vector<Vec2> out;
  for (const auto& ob : obs) {
    dec.push(ob);
    // Nothing can commit before a seed exists.
    EXPECT_EQ(dec.poll(out), 0u);
    EXPECT_FALSE(dec.seeded());
  }
  dec.finish(out);
  EXPECT_TRUE(dec.seeded());
  expect_bit_identical(out, batch);
}

TEST(StreamingDecoder, EmptyStreamCommitsNothing) {
  const PolarDrawConfig cfg;
  const auto tb = make_decode_testbed(cfg, 1, 7);
  StreamingDecoder dec(cfg, tb.a1, tb.a2, tb.antenna_z);
  std::vector<Vec2> out;
  EXPECT_EQ(dec.poll(out), 0u);
  EXPECT_EQ(dec.finish(out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(StreamingDecoder, NonFiniteWindowDecodesAsUnobserved) {
  // push() is the one screen for hostile windows. A window whose bounds,
  // dtheta21 or direction is not finite must decode exactly as the
  // unobserved window, be tallied once, and leave every later score
  // finite, so the front max stays exactly 0. Unscreened, a NaN dtheta21,
  // direction or upper bound turns the beam NaN for good, and an infinite
  // upper bound or a NaN lower bound lifts that bound.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr std::size_t kBad = 40;
  constexpr int kWindows = 300;
  const PolarDrawConfig cfg;
  using Spoil = void (*)(TrackObservation&);
  const std::pair<const char*, Spoil> cases[] = {
      {"NaN dtheta21",
       [](TrackObservation& o) {
         o.has_phase = true;
         o.distance.valid = true;
         o.distance.dtheta21 = kNaN;
       }},
      {"NaN upper_m", [](TrackObservation& o) { o.distance.upper_m = kNaN; }},
      {"+inf upper_m", [](TrackObservation& o) { o.distance.upper_m = kInf; }},
      {"NaN lower_m",
       [](TrackObservation& o) {
         o.distance.valid = true;
         o.distance.lower_m = kNaN;
       }},
      {"+inf direction.x",
       [](TrackObservation& o) {
         o.direction.type = MotionType::kTranslational;
         o.direction.direction.x = kInf;
       }},
  };

  const DecodeTestbed layout = make_decode_testbed(cfg, 0, 1);
  const auto field = std::make_shared<const PhaseField>(
      cfg, layout.a1, layout.a2, layout.antenna_z);
  const auto decode = [&](const std::vector<TrackObservation>& obs,
                          std::size_t lag, const Vec2* hint) {
    StreamingConfig scfg;
    scfg.lag_windows = lag;
    StreamingDecoder dec(cfg, layout.a1, layout.a2, layout.antenna_z, scfg,
                         field, hint);
    std::vector<Vec2> out;
    std::size_t off_zero = 0;  // pushes that leave the front max off 0
    for (const auto& o : obs) {
      dec.push(o);
      if (dec.front_logp_max() != 0.0f) ++off_zero;
      dec.poll(out);
    }
    dec.finish(out);
    EXPECT_EQ(off_zero, 0u) << "pushes whose front max is not exactly 0";
    return out;
  };

  obs::Registry& reg = obs::Registry::global();
  const bool metrics_were_on = reg.enabled();
  reg.set_enabled(true);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const DecodeTestbed tb = make_decode_testbed(cfg, kWindows, seed);
    std::vector<TrackObservation> replaced = tb.obs;
    replaced[kBad] = unobserved_window(cfg);
    for (const std::size_t lag : {std::size_t{16}, std::size_t{kWindows + 1}}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " lag " << lag);
      reg.reset();
      const std::vector<Vec2> want = decode(replaced, lag, &tb.start);
      EXPECT_EQ(reg.snapshot().counter("hmm.nonfinite_observations"), 0u);
      for (const auto& [name, spoil] : cases) {
        SCOPED_TRACE(name);
        std::vector<TrackObservation> obs = tb.obs;
        spoil(obs[kBad]);
        reg.reset();
        expect_bit_identical(decode(obs, lag, &tb.start), want);
        EXPECT_EQ(reg.snapshot().counter("hmm.nonfinite_observations"), 1u);
      }
    }
  }
  reg.reset();
  reg.set_enabled(metrics_were_on);

  // Unhinted, a phase window with a NaN dtheta21 names no hyperbola, so
  // the chain must not seed on it.
  const DecodeTestbed tb = make_decode_testbed(cfg, kWindows, 1);
  std::vector<TrackObservation> obs = tb.obs;
  cases[0].second(obs[0]);
  StreamingDecoder dec(cfg, tb.a1, tb.a2, tb.antenna_z, {}, field);
  dec.push(obs[0]);
  EXPECT_FALSE(dec.seeded());
  std::vector<TrackObservation> replaced = tb.obs;
  replaced[0] = unobserved_window(cfg);
  expect_bit_identical(decode(obs, kWindows + 1, nullptr),
                       decode(replaced, kWindows + 1, nullptr));
}

TEST(StreamingDecoder, StarvedWindowHoldsTheBestState) {
  // A finite window can still leave no candidate: a lower bound beyond the
  // board rejects every displacement. The decoder then holds the front's
  // most probable state (the window's position repeats the one before),
  // tallies the window in hmm.starved_windows, and keeps the front max at
  // exactly 0.
  constexpr std::size_t kStarved = 10;
  const PolarDrawConfig cfg;
  DecodeTestbed tb = make_decode_testbed(cfg, 20, 7);
  tb.obs[kStarved].distance.lower_m = 5.0;
  tb.obs[kStarved].distance.upper_m = 5.0;
  obs::Registry& reg = obs::Registry::global();
  const bool metrics_were_on = reg.enabled();
  reg.set_enabled(true);
  for (const std::size_t lag : {std::size_t{4}, tb.obs.size() + 1}) {
    SCOPED_TRACE(::testing::Message() << "lag " << lag);
    reg.reset();
    StreamingConfig scfg;
    scfg.lag_windows = lag;
    StreamingDecoder dec(cfg, tb.a1, tb.a2, tb.antenna_z, scfg, nullptr,
                         &tb.start);
    std::vector<Vec2> out;
    for (const auto& o : tb.obs) {
      dec.push(o);
      EXPECT_EQ(dec.front_logp_max(), 0.0f);
      dec.poll(out);
    }
    dec.finish(out);
    EXPECT_EQ(reg.snapshot().counter("hmm.starved_windows"), 1u);
    // Position i + 1 is the state after window i.
    ASSERT_EQ(out.size(), tb.obs.size() + 1);
    EXPECT_EQ(out[kStarved + 1].x, out[kStarved].x);
    EXPECT_EQ(out[kStarved + 1].y, out[kStarved].y);
  }
  reg.reset();
  reg.set_enabled(metrics_were_on);
}

TEST(StreamingDecoder, LongStreamKeepsResolutionViaRenormalization) {
  // The float log-prob drift bugfix: node_logp_ is float and every window
  // subtracts a score, so an unnormalized 1e4-window session would push
  // the beam to magnitudes where float ULP rivals the per-window score
  // differences that separate candidates. The per-window renormalization
  // pins the front max at exactly 0.0f forever; this decodes >= 1e4
  // windows, asserts the invariant every window, and checks the committed
  // trajectory against a chunk-restarted reference (fresh decoders seeded
  // from the previous chunk's last committed position -- a decoder whose
  // log-probs cannot have drifted by construction).
  PolarDrawConfig cfg;
  cfg.board_width_m = 0.5;
  cfg.board_height_m = 0.4;
  cfg.block_m = 0.005;
  cfg.beam_width = 200;
  const int kWindows = 10'000;
  const std::size_t kChunk = 500;
  const std::size_t kLag = 16;
  const auto tb = make_decode_testbed(cfg, kWindows, 6);

  StreamingConfig scfg;
  scfg.lag_windows = kLag;
  StreamingDecoder dec(cfg, tb.a1, tb.a2, tb.antenna_z, scfg, nullptr,
                       &tb.start);
  std::vector<Vec2> long_out;
  for (const auto& o : tb.obs) {
    dec.push(o);
    ASSERT_EQ(dec.front_logp_max(), 0.0f)
        << "renormalization invariant broken at window " << dec.pushed();
    dec.poll(long_out);
  }
  dec.finish(long_out);
  ASSERT_EQ(long_out.size(), static_cast<std::size_t>(kWindows) + 1);
  // The cumulative offset the renormalization absorbed: without it this
  // entire magnitude would sit inside every float log-prob of the beam.
  EXPECT_LT(dec.total_logp_offset(), -1000.0);

  // Chunk-restarted reference: decoder k seeds from the last committed
  // position of decoder k-1 and decodes the next kChunk windows.
  std::vector<Vec2> chunked_out;
  chunked_out.push_back(long_out[0]);
  Vec2 hint = long_out[0];
  for (std::size_t begin = 0; begin < tb.obs.size(); begin += kChunk) {
    StreamingDecoder chunk(cfg, tb.a1, tb.a2, tb.antenna_z, scfg, nullptr,
                           &hint);
    std::vector<Vec2> part;
    const std::size_t end = std::min(begin + kChunk, tb.obs.size());
    for (std::size_t i = begin; i < end; ++i) chunk.push(tb.obs[i]);
    chunk.finish(part);
    ASSERT_EQ(part.size(), end - begin + 1);
    // part[0] replays the seed root; positions 1.. are the chunk's decode.
    chunked_out.insert(chunked_out.end(), part.begin() + 1, part.end());
    hint = part.back();
  }
  ASSERT_EQ(chunked_out.size(), long_out.size());
  // The restarted decoders lose the long session's beam diversity at each
  // boundary, so equality is up to a small re-anchoring deviation; a
  // resolution-starved long session fails this by drifting unboundedly.
  EXPECT_LE(mean_deviation(long_out, chunked_out), 4.0 * cfg.block_m);
}

/// One pen of the interleaving test: its board and beam, its stream, and
/// whether it is hinted.
struct InterleavedPen {
  PolarDrawConfig cfg;
  DecodeTestbed tb;
  bool use_hint = true;
};

/// The hmm.* counters and gauges of a snapshot, by name. A counter at 0 is
/// the same tally whether or not an earlier decode registered it, so it is
/// left out.
std::vector<std::pair<std::string, double>> hmm_tallies(
    const obs::Snapshot& snap) {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("hmm.", 0) == 0 && value != 0) {
      out.emplace_back(name, static_cast<double>(value));
    }
  }
  for (const auto& [name, value] : snap.gauges) {
    if (name.rfind("hmm.", 0) == 0) out.emplace_back(name, value);
  }
  return out;
}

TEST(StreamingDecoder, InterleavedDecodersMatchIsolatedDecodes) {
  // Every decoder on a thread expands its windows in that thread's one
  // set of scratch buffers, so a window must read nothing an earlier
  // window left there, its own or another decoder's. Five pens stream
  // round-robin, one window at a time: two on the default board (one
  // unhinted), one whose every sixth window has a 100 m upper bound (it
  // spans the board, so its table and box arrays grow to the whole grid
  // between the others' windows) and every sixth a NaN one (which the
  // decoder screens and tallies), one on a 2 m x 1.2 m board and one on
  // the 5 mm golden board. They run once on
  // this thread and once on a 4-thread pool, whose threads take whichever
  // pen comes next, so pens move between threads from window to window.
  // Each pen's trajectory and hmm.* tallies must equal its decode alone on
  // a fresh thread, bit for bit.
  constexpr int kWindows = 60;
  constexpr std::size_t kLag = 8;
  std::vector<InterleavedPen> pens;
  const PolarDrawConfig board;
  pens.push_back({board, make_decode_testbed(board, kWindows, 1), true});
  pens.push_back({board, make_decode_testbed(board, kWindows, 2), false});
  PolarDrawConfig hostile = board;
  hostile.beam_width = 50;  // a board-wide window costs beam x grid lanes
  pens.push_back({hostile, make_decode_testbed(hostile, kWindows, 3), true});
  for (std::size_t w = 2; w < pens.back().tb.obs.size(); w += 6) {
    pens.back().tb.obs[w].distance.upper_m = 100.0;
    if (w + 3 < pens.back().tb.obs.size()) {
      pens.back().tb.obs[w + 3].distance.upper_m =
          std::numeric_limits<double>::quiet_NaN();
    }
  }
  PolarDrawConfig big = board;
  big.board_width_m = 2.0;
  big.board_height_m = 1.2;
  pens.push_back({big, make_decode_testbed(big, kWindows, 4), true});
  PolarDrawConfig fine;
  fine.board_width_m = 0.5;
  fine.board_height_m = 0.4;
  fine.block_m = 0.005;
  fine.beam_width = 200;
  fine.hyperbola_sharpness = 1.0;
  pens.push_back({fine, make_decode_testbed(fine, kWindows, 5), true});

  StreamingConfig scfg;
  scfg.lag_windows = kLag;
  const auto make_decoder = [&](const InterleavedPen& pen) {
    return std::make_unique<StreamingDecoder>(
        pen.cfg, pen.tb.a1, pen.tb.a2, pen.tb.antenna_z, scfg, nullptr,
        pen.use_hint ? &pen.tb.start : nullptr);
  };
  obs::Registry& reg = obs::Registry::global();
  const bool metrics_were_on = reg.enabled();
  reg.set_enabled(true);

  // Reference: each pen alone, on a thread whose scratch starts cold.
  std::vector<std::vector<Vec2>> alone(pens.size());
  std::vector<std::vector<std::pair<std::string, double>>> alone_tallies;
  for (std::size_t p = 0; p < pens.size(); ++p) {
    reg.reset();
    std::thread([&] {
      const auto dec = make_decoder(pens[p]);
      for (const auto& o : pens[p].tb.obs) {
        dec->push(o);
        dec->poll(alone[p]);
      }
      dec->finish(alone[p]);
    }).join();
    alone_tallies.push_back(hmm_tallies(reg.snapshot()));
    ASSERT_FALSE(alone_tallies.back().empty());
    ASSERT_EQ(alone[p].size(), static_cast<std::size_t>(kWindows) + 1);
  }

  for (const int n_threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << n_threads << " thread(s)");
    ThreadPool pool(n_threads);
    std::vector<std::unique_ptr<StreamingDecoder>> decoders;
    for (const InterleavedPen& pen : pens) {
      decoders.push_back(make_decoder(pen));
    }
    std::vector<std::vector<Vec2>> out(pens.size());
    for (std::size_t w = 0; w < static_cast<std::size_t>(kWindows); ++w) {
      pool.parallel_for(pens.size(), [&](std::size_t p) {
        decoders[p]->push(pens[p].tb.obs[w]);
        decoders[p]->poll(out[p]);
      });
    }
    for (std::size_t p = 0; p < pens.size(); ++p) {
      SCOPED_TRACE(::testing::Message() << "pen " << p);
      reg.reset();
      decoders[p]->finish(out[p]);
      EXPECT_EQ(hmm_tallies(reg.snapshot()), alone_tallies[p]);
      expect_bit_identical(out[p], alone[p]);
    }
  }
  reg.reset();
  reg.set_enabled(metrics_were_on);
}

}  // namespace
}  // namespace polardraw::core
