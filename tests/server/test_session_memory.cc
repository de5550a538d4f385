// Session memory (DESIGN.md section 13): over a long session the server's
// heap may grow only by the committed trajectory, a session's own
// footprint follows the beam, not the board, a decoder holds only the beam
// steps its lag can still commit, the decode scratch is the thread's, so
// hostile sessions share one board-sized set, and a pen's front end
// allocates nothing per window once warm; a pump frees the burst it
// decodes. This executable replaces the global operator new/delete with a
// live-byte and allocation counter, so it holds these six tests and
// nothing else.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/angles.h"
#include "core/decode_testbed.h"
#include "core/motion_front_end.h"
#include "core/phase_field.h"
#include "core/preprocess.h"
#include "core/streaming_decoder.h"
#include "obs/metrics.h"
#include "rfid/window_clock.h"
#include "server/session_server.h"

namespace {

std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_allocations{0};

// Each block starts with its size in a header one max_align_t wide, so the
// unsized delete can subtract it and the payload keeps its alignment.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_alloc(std::size_t n) {
  void* raw = std::malloc(n + kHeader);
  if (raw == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(raw) = n;
  g_live_bytes.fetch_add(static_cast<std::int64_t>(n),
                         std::memory_order_relaxed);
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return static_cast<char*>(raw) + kHeader;
}

void* counted_alloc_nothrow(std::size_t n) noexcept {
  try {
    return counted_alloc(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  void* raw = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(
      static_cast<std::int64_t>(*static_cast<std::size_t*>(raw)),
      std::memory_order_relaxed);
  std::free(raw);
}

}  // namespace

// Every non-aligned form, so no block reaches a runtime's own delete (the
// sanitizers ship their own replacements for each one).
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace polardraw::server {
namespace {

/// What one session may hold after 400 default-board windows at the
/// default lag 16 and beam 600: its 17 beam steps (600 nodes of 12 B
/// each, 122.4 KB), its committed trajectory and its queue.
constexpr std::int64_t kSessionBytes = 150 * 1024;

/// Decodes `tb` once on this thread, untimed. The decode scratch belongs
/// to the thread and grows to the largest window it has expanded, so the
/// first decode on a thread pays for it; warming it first leaves a
/// session's own heap to be measured.
void warm_thread_scratch(const core::PolarDrawConfig& cfg,
                         const core::DecodeTestbed& tb) {
  core::decode_full_lag(cfg, tb.a1, tb.a2, tb.antenna_z, tb.obs, &tb.start);
}

TEST(SessionMemory, HistoryStaysBoundedOverALongSession) {
  // One pen streams 10^5 windows at lag 16 with one pump per window. From
  // 2*10^4 to 10^5 windows the committed trajectory's capacity grows from
  // 32,768 to 131,072 positions of 16 B, i.e. by 1.57 MB. Anything kept
  // per observation past its commit (24 B a window for a stamp, a sim
  // time and a flow id) would add about 2.4 MB more.
  core::PolarDrawConfig cfg;
  cfg.board_width_m = 0.4;
  cfg.board_height_m = 0.3;
  cfg.block_m = 0.01;
  cfg.beam_width = 150;
  const core::DecodeTestbed tb = core::make_decode_testbed(cfg, 1000, 3);
  SessionServerConfig scfg;
  scfg.stream.lag_windows = 16;
  scfg.n_workers = 1;
  SessionServer server(cfg, tb.a1, tb.a2, tb.antenna_z, scfg);
  server.open(1, &tb.start);

  constexpr std::size_t kWindows = 100000, kMark = 20000;
  std::int64_t at_mark = 0;
  for (std::size_t w = 0; w < kWindows; ++w) {
    ASSERT_TRUE(server.submit(1, tb.obs[w % tb.obs.size()],
                              static_cast<double>(w) * cfg.window_s));
    server.pump();
    if (w + 1 == kMark) at_mark = g_live_bytes.load();
  }
  const std::int64_t growth = g_live_bytes.load() - at_mark;
  RecordProperty("live_heap_growth_bytes", std::to_string(growth));
  EXPECT_LE(growth, 2'000'000) << "live heap grew by " << growth
                               << " B between " << kMark << " and "
                               << kWindows << " windows";
  EXPECT_EQ(server.close(1).size(), kWindows + 1);
}

TEST(SessionMemory, SessionFootprintDoesNotScaleWithTheBoard) {
  // One session streams the same 400 windows on the default 1 m x 0.6 m
  // board (250 x 150 cells) and on a 2 m x 1.2 m one (500 x 300). The
  // server's shared phase field is board-sized and the decode scratch is
  // the thread's (warmed before each mark), so opening a session costs a
  // few hundred bytes and its heap after 400 windows is its lag's beam
  // steps, the same on both boards.
  const core::PolarDrawConfig small_board;
  const core::DecodeTestbed tb = core::make_decode_testbed(small_board, 400, 3);
  core::PolarDrawConfig big_board = small_board;
  big_board.board_width_m = 2.0;
  big_board.board_height_m = 1.2;

  struct Footprint {
    std::int64_t at_open = 0;
    std::int64_t after_stream = 0;
  };
  const auto measure = [&](const core::PolarDrawConfig& cfg) {
    SessionServerConfig scfg;
    scfg.n_workers = 1;
    SessionServer server(cfg, tb.a1, tb.a2, tb.antenna_z, scfg);
    warm_thread_scratch(cfg, tb);
    const std::int64_t before = g_live_bytes.load();
    server.open(1, &tb.start);
    Footprint f;
    f.at_open = g_live_bytes.load() - before;
    for (std::size_t w = 0; w < tb.obs.size(); ++w) {
      EXPECT_TRUE(server.submit(1, tb.obs[w],
                                static_cast<double>(w) * cfg.window_s));
      server.pump();
    }
    f.after_stream = g_live_bytes.load() - before;
    EXPECT_EQ(server.close(1).size(), tb.obs.size() + 1);
    return f;
  };
  const Footprint small = measure(small_board);
  const Footprint big = measure(big_board);
  RecordProperty("open_bytes_small_board", std::to_string(small.at_open));
  RecordProperty("open_bytes_big_board", std::to_string(big.at_open));
  RecordProperty("session_bytes_small_board",
                 std::to_string(small.after_stream));
  RecordProperty("session_bytes_big_board", std::to_string(big.after_stream));
  EXPECT_LT(small.at_open, 2 * 1024);
  EXPECT_LT(big.at_open, 2 * 1024);
  EXPECT_LT(small.after_stream, kSessionBytes)
      << "after " << tb.obs.size() << " windows a session holds "
      << small.after_stream << " B on the default board";
  const std::int64_t diff = big.after_stream - small.after_stream;
  EXPECT_LT(diff < 0 ? -diff : diff, 4 * 1024)
      << "after " << tb.obs.size() << " windows a session holds "
      << small.after_stream << " B on the default board and "
      << big.after_stream << " B on the big one";
}

TEST(SessionMemory, DecoderHoldsOnlyItsLag) {
  // A decoder keeps the lag + 1 beam steps a commit can still read and
  // reuses the ones a commit has passed, so its heap follows the lag, not
  // the number of windows behind the commit frontier. One decoder at beam
  // 50 on the default board streams 400 hinted windows over a shared phase
  // field, polled into a vector reserved beforehand. The steps take 600 B
  // each, 1.2 KB at lag 1 and 10.2 KB at lag 16. The decode scratch is the
  // thread's, warmed before each mark, so it is not counted.
  core::PolarDrawConfig cfg;
  cfg.beam_width = 50;
  const core::DecodeTestbed tb = core::make_decode_testbed(cfg, 400, 3);
  const auto field = std::make_shared<const core::PhaseField>(
      cfg, tb.a1, tb.a2, tb.antenna_z);
  std::vector<Vec2> out;
  out.reserve(tb.obs.size() + 1);
  for (const std::size_t lag : {std::size_t{1}, std::size_t{16}}) {
    SCOPED_TRACE(::testing::Message() << "lag " << lag);
    out.clear();
    core::StreamingConfig scfg;
    scfg.lag_windows = lag;
    warm_thread_scratch(cfg, tb);
    const std::int64_t before = g_live_bytes.load();
    core::StreamingDecoder dec(cfg, tb.a1, tb.a2, tb.antenna_z, scfg, field,
                               &tb.start);
    for (const auto& o : tb.obs) {
      dec.push(o);
      dec.poll(out);
    }
    const std::int64_t held = g_live_bytes.load() - before;
    RecordProperty("decoder_bytes_lag_" + std::to_string(lag),
                   std::to_string(held));
    EXPECT_LT(held, 16 * 1024)
        << "a lag-" << lag << " decoder holds " << held << " B after "
        << tb.obs.size() << " windows";
    EXPECT_EQ(out.size(), tb.obs.size() + 1 - lag);
  }
}

TEST(SessionMemory, HostileBoundsCostOneScratchPerThread) {
  // A window whose upper bound spans the board (100 m) expands over a
  // board-sized lane list and box arrays, plus a candidate per cell and its
  // radix keys: about 4.2 MB on the default 250 x 150 grid.
  // Those buffers are the decoding thread's, reused by every session it
  // serves, so eight sessions on a one-worker server that each take one
  // such window hold one set between them, not one each. Each session
  // takes a 100 m window, then 40 testbed windows, and stays open.
  const core::PolarDrawConfig cfg;
  constexpr int kSessions = 8;
  constexpr int kWindows = 41;
  std::vector<core::DecodeTestbed> pens;
  for (int p = 0; p < kSessions; ++p) {
    pens.push_back(core::make_decode_testbed(
        cfg, kWindows, static_cast<std::uint64_t>(p) + 1));
    pens.back().obs[0].distance.upper_m = 100.0;
  }
  SessionServerConfig scfg;
  scfg.n_workers = 1;
  SessionServer server(cfg, pens[0].a1, pens[0].a2, pens[0].antenna_z, scfg);
  const std::int64_t before = g_live_bytes.load();
  for (int p = 0; p < kSessions; ++p) {
    server.open(static_cast<SessionId>(p),
                &pens[static_cast<std::size_t>(p)].start);
  }
  for (std::size_t w = 0; w < static_cast<std::size_t>(kWindows); ++w) {
    for (int p = 0; p < kSessions; ++p) {
      ASSERT_TRUE(server.submit(static_cast<SessionId>(p),
                                pens[static_cast<std::size_t>(p)].obs[w],
                                static_cast<double>(w) * cfg.window_s));
    }
    server.pump();
  }
  const std::int64_t held = g_live_bytes.load() - before;

  // One board-spanning window's scratch: the lanes of the ring an on-board
  // parent can use (|dr| < rows, |dc| < cols), (2 * rows - 1) x
  // (2 * cols - 1) of them at 16 B (a box offset and a log-weight), and per
  // cell 20 B of box arrays, a 12 B candidate and two 8 B radix keys. The
  // lane list and the per-cell arrays double to grow but never past that
  // ring or the board, so they count once.
  const std::int64_t cols = std::llround(cfg.board_width_m / cfg.block_m);
  const std::int64_t rows = std::llround(cfg.board_height_m / cfg.block_m);
  const std::int64_t lanes = (2 * rows - 1) * (2 * cols - 1);
  const std::int64_t board_scratch =
      lanes * 16 + cols * rows * (20 + 12 + 16);
  RecordProperty("hostile_sessions_bytes", std::to_string(held));
  EXPECT_LT(held, board_scratch + kSessions * kSessionBytes)
      << kSessions << " sessions that each took a 100 m window hold " << held
      << " B; one board-sized scratch is " << board_scratch << " B";
  for (int p = 0; p < kSessions; ++p) {
    EXPECT_EQ(server.close(static_cast<SessionId>(p)).size(),
              static_cast<std::size_t>(kWindows) + 1);
  }
  // With every session closed, what stays is the worker's scratch: the
  // board-sized set, its per-row, per-reach and per-beam buffers (about
  // 8 KB here) and the server's own bookkeeping, less than one session.
  const std::int64_t closed = g_live_bytes.load() - before;
  RecordProperty("hostile_closed_bytes", std::to_string(closed));
  EXPECT_LT(closed, board_scratch + kSessionBytes)
      << "after every session closed " << closed
      << " B stay; one board-sized scratch is " << board_scratch << " B";
}

TEST(SessionMemory, BurstIsReleasedByThePumpThatDecodesIt) {
  // A session holds a submitted window only until the pump that decodes
  // it. One open session, warmed by 400 windows at one pump each, takes a
  // burst of 10,000 windows (800 KB of observations) and one pump. Above
  // the pre-burst mark it may then hold its committed trajectory, 16 B a
  // position in a vector that at most doubles, and under 80 KB besides: a
  // mailbox that kept the burst's capacity, or a decoder that kept the
  // burst's commits buffered, holds more.
  core::PolarDrawConfig cfg;
  cfg.board_width_m = 0.4;
  cfg.board_height_m = 0.3;
  cfg.block_m = 0.01;
  cfg.beam_width = 150;
  const core::DecodeTestbed tb = core::make_decode_testbed(cfg, 1000, 3);
  SessionServerConfig scfg;
  scfg.n_workers = 1;
  SessionServer server(cfg, tb.a1, tb.a2, tb.antenna_z, scfg);
  server.open(1, &tb.start);

  constexpr std::size_t kWarmup = 400, kBurst = 10000;
  std::size_t committed = 0;
  std::size_t w = 0;
  const auto submit = [&] {
    EXPECT_TRUE(server.submit(1, tb.obs[w % tb.obs.size()],
                              static_cast<double>(w) * cfg.window_s));
    ++w;
  };
  while (w < kWarmup) {
    submit();
    committed += server.pump();
  }
  const std::int64_t before = g_live_bytes.load();
  while (w < kWarmup + kBurst) submit();
  committed += server.pump();
  const std::int64_t held = g_live_bytes.load() - before;
  const auto trajectory_bytes =
      static_cast<std::int64_t>(2 * committed * sizeof(Vec2));
  RecordProperty("burst_bytes_held", std::to_string(held));
  EXPECT_LT(held, trajectory_bytes + 80 * 1024)
      << "after a " << kBurst << "-window burst and one pump a session holds "
      << held << " B; its " << committed << " committed positions take at "
      << "most " << trajectory_bytes << " B";
  EXPECT_EQ(server.close(1).size(), kWarmup + kBurst + 1);
}

TEST(SessionMemory, PenFrontEndAllocatesNothingPerWindow) {
  // A pen's front end -- the window clock, to_window, PhaseGate and
  // MotionFrontEnd, chained as the associator chains them -- keeps fixed
  // state and reuses the clock's one window buffer, so once warm it
  // allocates nothing per window. One pen's two-port stream takes 8 reads
  // a window and hops channel every 8 windows over four channels (the
  // fourth uncalibrated, so hops to and from it fence), while its phases
  // ramp and its RSS swings (about 840 rotational, 1,460 translational and
  // 100 idle windows). After 200 warm-up windows, windows 201-2,400 must
  // allocate nothing, with metrics on and off.
  const core::PolarDrawConfig cfg;
  constexpr int kWarmup = 200, kWindows = 2400, kReadsPerWindow = 8;
  rfid::TagReportStream reads;
  for (int i = 0; i < kWindows * kReadsPerWindow; ++i) {
    rfid::TagReport r;
    r.timestamp_s = (i + 0.5) * cfg.window_s / kReadsPerWindow;
    r.antenna_id = i % 2;
    r.channel = i / (8 * kReadsPerWindow) % 4;
    const double t = r.timestamp_s;
    r.rss_dbm = -45.0 + 3.0 * std::sin(7.0 * t + r.antenna_id);
    r.phase_rad =
        wrap_2pi(3.0 * std::sin(0.9 * t + 2.0 * r.antenna_id) + 0.5 * t);
    reads.push_back(r);
  }
  const rfid::PhaseCalibration calibration{{0.3, -0.2}, {0.0, 0.4, -0.3}};

  obs::Registry& reg = obs::Registry::global();
  const bool metrics_were_on = reg.enabled();
  for (const bool metrics : {true, false}) {
    SCOPED_TRACE(metrics ? "metrics on" : "metrics off");
    reg.set_enabled(metrics);
    rfid::WindowClock clock(2, cfg.window_s);
    core::PhaseGate gate(cfg.spurious_phase_threshold_rad);
    core::MotionFrontEnd front(cfg);
    int finished = 0;
    int released = 0;
    std::int64_t at_warm = 0;
    const auto finish = [&](const rfid::ClockWindow& w) {
      core::Window win = core::to_window(w);
      for (int a = 0; a < 2; ++a) gate.gate(win, a);
      if (front.push(win).released) ++released;
      if (++finished == kWarmup) at_warm = g_allocations.load();
    };
    for (const rfid::TagReport& r : reads) clock.add(r, &calibration, finish);
    clock.flush(finish);
    if (front.flush()) ++released;
    const std::int64_t allocations = g_allocations.load() - at_warm;
    EXPECT_EQ(finished, kWindows);
    EXPECT_EQ(released, kWindows);
    EXPECT_EQ(allocations, 0) << "windows " << kWarmup + 1 << "-" << kWindows
                              << " allocated " << allocations << " times";
  }
  reg.reset();
  reg.set_enabled(metrics_were_on);
}

}  // namespace
}  // namespace polardraw::server
