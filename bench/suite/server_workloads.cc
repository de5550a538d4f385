// The two server workloads. Both feed seeded make_decode_testbed streams
// (one per pen, seeded splitmix64(seed, pen)) through one SessionServer on
// kWorkers threads, then close every pen and check the trajectories:
// one position per window plus the seed, all finite, and four sampled pens
// bit-identical to an isolated StreamingDecoder at the same lag (the
// server's determinism contract).
//
//   live_paced    open loop: every pen writes 20 windows/s; the generator
//                 wakes on a strict 10 ms tick, submits the windows due in
//                 that tick's slot and pumps. Latency runs from a window's
//                 due time to the return of the pump that drained it.
//   backlog_drain closed loop: a whole class's backlog (128 pens, 30 s of
//                 writing each) is submitted 20 windows per pen per pump,
//                 then every pen is closed. Latency runs from the start of
//                 the drain to the return of the pump that drained the
//                 window.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>

#include "core/decode_testbed.h"
#include "core/streaming_decoder.h"
#include "server/session_server.h"
#include "suite.h"

namespace polarbench {

namespace {

using polardraw::Vec2;
using polardraw::core::PolarDrawConfig;
using polardraw::core::TrackObservation;
using polardraw::server::SessionServer;
using polardraw::server::SessionServerConfig;

struct PenSet {
  PolarDrawConfig cfg;
  Vec2 a1, a2;
  double antenna_z = 0.0;
  std::vector<Vec2> starts;
  std::vector<std::vector<TrackObservation>> obs;
};

PenSet make_pens(const PolarDrawConfig& cfg, std::size_t pens,
                 std::size_t windows, std::uint64_t seed) {
  PenSet set;
  set.cfg = cfg;
  for (std::size_t p = 0; p < pens; ++p) {
    auto tb = polardraw::core::make_decode_testbed(
        cfg, static_cast<int>(windows), pen_seed(seed, p));
    set.a1 = tb.a1;
    set.a2 = tb.a2;
    set.antenna_z = tb.antenna_z;
    set.starts.push_back(tb.start);
    set.obs.push_back(std::move(tb.obs));
  }
  return set;
}

/// A server on `workers` threads with the first `pens` pens open.
std::unique_ptr<SessionServer> start_server(const PenSet& set, int workers,
                                            std::size_t pens) {
  SessionServerConfig scfg;
  scfg.n_workers = workers;
  auto server = std::make_unique<SessionServer>(set.cfg, set.a1, set.a2,
                                                set.antenna_z, scfg);
  for (std::size_t p = 0; p < pens; ++p) {
    server->open(p, &set.starts[p]);
  }
  return server;
}

/// Set-up: SessionServer construction (phase field, pool) plus opening
/// every pen's session.
double server_setup_s(const PenSet& set, bool smoke,
                      std::unique_ptr<SessionServer>& keep) {
  return median_setup_s(smoke ? 3 : 15, keep,
                        [&] {
                          return start_server(set, kWorkers, set.starts.size());
                        });
}

/// Closes every pen and returns the trajectories in pen order.
std::vector<std::vector<Vec2>> close_all(SessionServer& server,
                                         std::size_t pens,
                                         std::vector<double>* close_ms) {
  std::vector<std::vector<Vec2>> out;
  out.reserve(pens);
  for (std::size_t p = 0; p < pens; ++p) {
    const auto t0 = Clock::now();
    out.push_back(server.close(p));
    const auto t1 = Clock::now();
    trace_span("bench.server.close", t0, t1);
    if (close_ms != nullptr) close_ms->push_back(1e3 * seconds_between(t0, t1));
  }
  return out;
}

/// The self-checks shared by both workloads (see the file comment).
void check_trajectories(const PenSet& set,
                        const std::vector<std::vector<Vec2>>& trajs,
                        const std::vector<std::size_t>& submitted,
                        Result& r) {
  const ObsPause pause;  // the re-decodes are not part of the workload
  r.attempted += trajs.size();
  for (std::size_t p = 0; p < trajs.size(); ++p) {
    if (trajs[p].size() != submitted[p] + 1 || !all_finite(trajs[p])) {
      ++r.failed;
      r.fail("pen " + std::to_string(p) + ": " +
             std::to_string(trajs[p].size()) + " positions for " +
             std::to_string(submitted[p]) + " windows, or non-finite");
    }
  }
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t p = i * trajs.size() / 4;
    polardraw::core::StreamingDecoder dec(set.cfg, set.a1, set.a2,
                                          set.antenna_z, SessionServerConfig{}.stream,
                                          nullptr, &set.starts[p]);
    std::vector<Vec2> alone;
    for (std::size_t w = 0; w < submitted[p]; ++w) {
      dec.push(set.obs[p][w]);
      dec.poll(alone);
    }
    dec.finish(alone);
    ++r.attempted;
    if (!bit_identical(alone, trajs[p])) {
      ++r.failed;
      r.fail("pen " + std::to_string(p) +
             ": server trajectory differs from the isolated decode");
    }
  }
}

/// Per-pump bookkeeping shared by the per-layer server metrics.
struct PumpStats {
  std::vector<double> pump_ms;
  std::size_t windows = 0;
  double busy_s = 0.0;

  void add(Clock::time_point t0, Clock::time_point t1, std::size_t drained) {
    const double s = seconds_between(t0, t1);
    pump_ms.push_back(1e3 * s);
    busy_s += s;
    windows += drained;
  }
  void report(Result& r, double wall_s) const {
    r.set("server.pump_busy_fraction", ratio(busy_s, wall_s));
    r.set("server.windows_per_pump",
          ratio(static_cast<double>(windows),
                static_cast<double>(pump_ms.size())));
    r.set("server.windows_per_busy_s",
          ratio(static_cast<double>(windows), busy_s));
  }
};

/// One open-loop run of `pens` pens (see the file comment): windows due
/// in [0, warmup_s) are submitted but not measured.
struct PacedRun {
  std::vector<double> submit_us;
  std::vector<double> late_ms;  // per measured tick
  std::vector<std::size_t> submitted;
  std::size_t refused = 0;
  /// Windows due by the end that the generator had not sent a window's
  /// time later, when the run ended.
  std::size_t unsent = 0;
  PumpStats pumps;
  /// One unit per measured pump that drained windows: their count, the
  /// process CPU spent submitting and pumping them, the pump's duration
  /// (so the wall rate is the service rate) and the windows' latencies.
  Units units;
  double wall_s = 0.0;  // measured part

  /// The largest-load verdict: p99 within one window, and the generator
  /// not falling further behind (its last quarter stays within a window).
  bool realtime(double win_s) const {
    const auto tail = late_ms.begin() + static_cast<std::ptrdiff_t>(3 * late_ms.size() / 4);
    const double tail_late = tail == late_ms.end() ? 0.0 : *std::max_element(tail, late_ms.end());
    return refused == 0 && unsent == 0 && units.latency(99.0) <= 1e3 * win_s &&
           tail_late <= 1e3 * win_s;
  }
};

PacedRun run_paced(const PenSet& set, std::size_t pens, double warmup_s,
                   double measure_s, SessionServer& server) {
  PacedRun run;
  run.submitted.assign(pens, 0);
  const double end_s = warmup_s + measure_s;
  const double win_s = set.cfg.window_s;
  const std::size_t windows = set.obs[0].size();
  const auto tick = std::chrono::milliseconds(10);
  const double tick_s = std::chrono::duration<double>(tick).count();
  // Pen p's window w is due at (w + 1 + p / pens) * window: due times are
  // window-major, so one cursor walks them in order.
  const auto due_s = [&](std::size_t w, std::size_t p) {
    return (static_cast<double>(w + 1) +
            static_cast<double>(p) / static_cast<double>(pens)) *
           win_s;
  };
  std::vector<double> slot_due, slot_latency_ms;
  std::size_t cw = 0, cp = 0;
  // The generator only sleeps between pumps, so the CPU since the last pump
  // returned is this slot's submits and pump.
  double cpu_mark = process_cpu_s();
  const auto t0 = Clock::now();
  // Tick k submits and pumps exactly the windows due in ((k-1) tick, k tick].
  // A late wake-up catches up one slot per pump, so what each pump does is
  // set by the schedule, not by how late the host let the generator run.
  // The run ends one window after end_s of wall time all the same: a
  // saturated server leaves windows unsent instead of stretching the run.
  for (std::int64_t k = 1; cw < windows && due_s(cw, cp) <= end_s &&
                           seconds_between(t0, Clock::now()) < end_s + win_s;
       ++k) {
    const auto scheduled = t0 + k * tick;
    std::this_thread::sleep_until(scheduled);
    const auto wake = Clock::now();
    const double slot_end_s = static_cast<double>(k) * tick_s;
    const bool measured = slot_end_s - tick_s >= warmup_s;
    if (measured) run.late_ms.push_back(1e3 * seconds_between(scheduled, wake));

    slot_due.clear();
    while (cw < windows && due_s(cw, cp) <= std::min(slot_end_s, end_s)) {
      const double due = due_s(cw, cp);
      const auto s0 = Clock::now();
      const bool ok = server.submit(cp, set.obs[cp][cw], due);
      if (measured) run.submit_us.push_back(1e6 * seconds_between(s0, Clock::now()));
      if (ok) {
        ++run.submitted[cp];
        slot_due.push_back(due);
      } else {
        ++run.refused;
      }
      if (++cp == pens) {
        cp = 0;
        ++cw;
      }
    }
    const auto p0 = Clock::now();
    server.pump();
    const auto p1 = Clock::now();
    const double cpu_now = process_cpu_s();
    const double slot_cpu_s = cpu_now - cpu_mark;
    cpu_mark = cpu_now;
    trace_span("bench.server.pump", p0, p1);
    if (!measured) continue;
    run.pumps.add(p0, p1, slot_due.size());
    if (slot_due.empty()) continue;
    const double done_s = seconds_between(t0, p1);
    slot_latency_ms.clear();
    for (const double due : slot_due) slot_latency_ms.push_back(1e3 * (done_s - due));
    run.units.add(static_cast<double>(slot_due.size()), slot_cpu_s,
                  seconds_between(p0, p1), slot_latency_ms);
  }
  run.wall_s = seconds_between(t0, Clock::now()) - warmup_s;
  for (; cw < windows && due_s(cw, cp) <= end_s; ++run.unsent) {
    if (++cp == pens) {
      cp = 0;
      ++cw;
    }
  }
  return run;
}

/// max_realtime_pens: bisection over the pen count to 5% resolution,
/// bracketed below by the load just measured and above by 1.2x the load
/// the measured service rate could carry at full busy.
double max_realtime_pens(const Options& opts, std::size_t lo, double capacity_pens) {
  const double warmup_s = opts.smoke ? 0.1 : 0.5;
  const double measure_s = opts.smoke ? 0.2 : 2.5;
  const auto cfg = server_config(opts.smoke);
  const auto windows = static_cast<std::size_t>(std::ceil((warmup_s + measure_s) / cfg.window_s)) + 1;
  const auto probe = [&](std::size_t pens) {
    const PenSet set = make_pens(cfg, pens, windows, opts.seed);
    const auto server = start_server(set, kWorkers, pens);
    return run_paced(set, pens, warmup_s, measure_s, *server).realtime(cfg.window_s);
  };
  std::size_t hi = std::max(lo + 1, static_cast<std::size_t>(1.2 * capacity_pens));
  while (probe(hi) && hi < 4096) {
    lo = hi;
    hi *= 2;
  }
  while (static_cast<double>(hi) > 1.05 * static_cast<double>(lo) && hi > lo + 1) {
    const std::size_t mid = (lo + hi) / 2;
    (probe(mid) ? lo : hi) = mid;
  }
  return static_cast<double>(lo);
}

}  // namespace

Result live_paced(const Options& opts) {
  Result r;
  const std::size_t pens = opts.smoke ? 16 : 192;
  const double warmup_s = opts.smoke ? 0.2 : 2.0;
  const auto cfg = server_config(opts.smoke);
  const double win_s = cfg.window_s;
  const auto windows = static_cast<std::size_t>(std::ceil((warmup_s + opts.seconds) / win_s)) + 1;
  const PenSet set = make_pens(cfg, pens, windows, opts.seed);

  std::unique_ptr<SessionServer> server;
  r.set("setup_s", server_setup_s(set, opts.smoke, server));
  const PacedRun run = run_paced(set, pens, warmup_s, opts.seconds, *server);

  std::size_t total = 0;
  for (const std::size_t n : run.submitted) total += n;
  r.attempted += total + run.refused;
  r.failed += run.refused;
  if (run.refused > 0) r.fail(std::to_string(run.refused) + " submits refused");
  check_trajectories(set, close_all(*server, pens, nullptr), run.submitted, r);
  server.reset();

  const double late_max_ms = pct(run.late_ms, 100.0);
  const Units& units = run.units;
  units.report(r);
  const double service_rate = units.wall_rate();
  run.pumps.report(r, run.wall_s);
  r.set("server.generator_late_max_windows", late_max_ms / (1e3 * win_s));
  if (opts.traced) {
    const ObsPause pause;
    r.set("decode.phase_field_build_ms",
          phase_field_build_ms(cfg, set.a1, set.a2, set.antenna_z, opts.smoke));
    r.set("server.max_realtime_pens",
          max_realtime_pens(opts, run.realtime(win_s) ? pens : pens / 4,
                            service_rate * win_s));
  }

  r.note("pens", static_cast<double>(pens), "pens");
  r.note("realtime_pens_per_core", r.metrics["throughput_per_cpu_s"] * win_s, "pens");
  r.note("window_latency_p50_ms", units.latency(50.0), "ms");
  r.note("window_latency_p99_ms", units.latency(99.0), "ms");
  r.note("unsent_windows", static_cast<double>(run.unsent), "windows");
  r.note("writer_delay_config_ms",
         1e3 * static_cast<double>(SessionServerConfig{}.stream.lag_windows) * win_s,
         "ms");
  r.note("capacity_pens_at_full_busy", service_rate * win_s, "pens");
  r.note("server.pump_ms_p50", pct(run.pumps.pump_ms, 50.0), "ms");
  r.note("server.pump_ms_p99", pct(run.pumps.pump_ms, 99.0), "ms");
  r.note("server.submit_us_p50", pct(run.submit_us, 50.0), "us");
  r.note("server.generator_late_max_ms", late_max_ms, "ms");
  return r;
}

Result backlog_drain(const Options& opts) {
  Result r;
  const std::size_t pens = opts.smoke ? 8 : 128;
  const std::size_t windows = opts.smoke ? 60 : 600;
  const std::size_t per_pump = 20;
  const auto cfg = server_config(opts.smoke);
  const PenSet set = make_pens(cfg, pens, windows, opts.seed);
  const std::vector<std::size_t> submitted(pens, windows);

  std::unique_ptr<SessionServer> server;
  r.set("setup_s", server_setup_s(set, opts.smoke, server));

  // One drain of the first `n_pens` pens: submits and pumps the backlog,
  // closes every pen, and returns the drain's wall time. `latency_ms`
  // (when given) receives each window's catch-up latency.
  PumpStats pumps;
  std::vector<double> close_ms;
  const auto drain = [&](SessionServer& srv, std::size_t n_pens,
                         std::vector<double>* latency_ms,
                         std::vector<std::vector<Vec2>>* trajs) {
    const auto t0 = Clock::now();
    for (std::size_t w0 = 0; w0 < windows; w0 += per_pump) {
      const std::size_t w1 = std::min(windows, w0 + per_pump);
      std::size_t refused = 0;
      for (std::size_t p = 0; p < n_pens; ++p) {
        for (std::size_t w = w0; w < w1; ++w) {
          if (!srv.submit(p, set.obs[p][w])) ++refused;
        }
      }
      r.attempted += n_pens * (w1 - w0);
      r.failed += refused;
      if (refused > 0) r.fail(std::to_string(refused) + " submits refused");
      const auto p0 = Clock::now();
      srv.pump();
      const auto p1 = Clock::now();
      trace_span("bench.server.pump", p0, p1);
      if (latency_ms == nullptr) continue;
      pumps.add(p0, p1, n_pens * (w1 - w0));
      latency_ms->insert(latency_ms->end(), n_pens * (w1 - w0),
                         1e3 * seconds_between(t0, p1));
    }
    auto closed = close_all(srv, n_pens, latency_ms != nullptr ? &close_ms : nullptr);
    if (trajs != nullptr) *trajs = std::move(closed);
    return seconds_between(t0, Clock::now());
  };

  // The first drain runs on the set-up server (its pool already spun up)
  // and is checked against isolated decodes; every later drain, on a fresh
  // server, must reproduce it bit for bit.
  std::vector<std::vector<Vec2>> first;
  Units units;
  double drain_s = 0.0, last_s = 0.0;
  std::size_t drains = 0;
  do {
    if (server == nullptr) server = start_server(set, kWorkers, pens);
    std::vector<double> latency_ms;
    std::vector<std::vector<Vec2>> trajs;
    const double c0 = process_cpu_s();
    last_s = drain(*server, pens, &latency_ms, &trajs);
    const double cpu_s = process_cpu_s() - c0;
    server.reset();
    drain_s += last_s;
    units.add(static_cast<double>(pens * windows), cpu_s, last_s, latency_ms);
    if (drains == 0) {
      first = std::move(trajs);
      check_trajectories(set, first, submitted, r);
    } else {
      ++r.attempted;
      if (!std::equal(trajs.begin(), trajs.end(), first.begin(), first.end(), bit_identical)) {
        ++r.failed;
        r.fail("drain " + std::to_string(drains) + " differs from the first drain");
      }
    }
    ++drains;
  } while (another_unit(drain_s, last_s, opts.seconds));

  units.report(r);
  const double rate = units.wall_rate();
  pumps.report(r, drain_s);
  double close_total_s = 0.0;
  for (const double ms : close_ms) close_total_s += ms / 1e3;
  r.set("server.close_share", ratio(close_total_s, drain_s));

  if (opts.traced) {
    // Single-worker baseline at the same load per worker (a quarter of the
    // pens): parallel efficiency = 4-worker rate / (4 x 1-worker rate).
    const ObsPause pause;
    r.set("decode.phase_field_build_ms",
          phase_field_build_ms(cfg, set.a1, set.a2, set.antenna_z, opts.smoke));
    const std::size_t base_pens = std::max<std::size_t>(1, pens / kWorkers);
    const auto solo = start_server(set, 1, base_pens);
    const double solo_s = drain(*solo, base_pens, nullptr, nullptr);
    const double solo_rate = static_cast<double>(base_pens * windows) / solo_s;
    r.set("server.parallel_efficiency",
          ratio(rate, static_cast<double>(kWorkers) * solo_rate));
  }

  r.note("pens", static_cast<double>(pens), "pens");
  r.note("windows_per_pen", static_cast<double>(windows), "windows");
  r.note("drain_windows_per_s", rate, "windows/s");
  r.note("catch_up_latency_p50_ms", units.latency(50.0), "ms");
  r.note("catch_up_latency_p99_ms", units.latency(99.0), "ms");
  r.note("server.close_ms_p50", pct(close_ms, 50.0), "ms");
  r.note("server.pump_ms_p50", pct(pumps.pump_ms, 50.0), "ms");
  return r;
}

}  // namespace polarbench
