// Live-introspection tests (DESIGN.md section 17): a real SessionServer's
// statusz document, captured mid-decode, must validate against the same
// benchjson schema CI enforces on the bench exports, its per-session
// flags must reflect the server state, and healthz() must trip on each
// documented threshold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/decode_testbed.h"
#include "json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "server/session_server.h"

namespace polardraw::server {
namespace {

using benchjson::parse;
using benchjson::validate_status_json;
using benchjson::Value;
using core::DecodeTestbed;
using core::PolarDrawConfig;
using core::make_decode_testbed;

PolarDrawConfig small_config() {
  PolarDrawConfig cfg;
  cfg.board_width_m = 0.4;
  cfg.board_height_m = 0.3;
  cfg.block_m = 0.01;
  cfg.beam_width = 150;
  return cfg;
}

Value parse_status(const std::string& doc) {
  const auto r = parse(doc);
  EXPECT_TRUE(r.ok) << r.error << "\n" << doc;
  return r.root;
}

TEST(Statusz, MidDecodeDocumentValidatesAgainstSchema) {
  const PolarDrawConfig cfg = small_config();
  const int kPens = 3, kWindows = 20;
  std::vector<DecodeTestbed> pens;
  for (int p = 0; p < kPens; ++p) {
    pens.push_back(
        make_decode_testbed(cfg, kWindows, static_cast<std::uint64_t>(p) + 1));
  }
  SessionServerConfig scfg;
  scfg.stream.lag_windows = 4;
  scfg.n_workers = 2;
  SessionServer server(cfg, pens[0].a1, pens[0].a2, pens[0].antenna_z, scfg);
  for (int p = 0; p < kPens; ++p) {
    server.open(static_cast<SessionId>(p),
                &pens[static_cast<std::size_t>(p)].start);
  }
  std::string mid;
  for (int w = 0; w < kWindows; ++w) {
    for (int p = 0; p < kPens; ++p) {
      server.submit(
          static_cast<SessionId>(p),
          pens[static_cast<std::size_t>(p)].obs[static_cast<std::size_t>(w)],
          /*t_s=*/0.1 * w);
    }
    server.pump();
    if (w == kWindows / 2) mid = server.status();
  }
  std::string end = server.status();

  for (const std::string* doc : {&mid, &end}) {
    const Value root = parse_status(*doc);
    const auto problems = validate_status_json(root);
    EXPECT_TRUE(problems.empty()) << problems.size() << " problems, first: "
                                  << (problems.empty() ? "" : problems[0])
                                  << "\n" << *doc;
  }

  // Spot-check the mid-run content: every session seeded, live rolling
  // stats, and the registry totals present.
  const Value root = parse_status(mid);
  EXPECT_DOUBLE_EQ(root.find("session_count")->number, 3.0);
  const Value* sessions = root.find("sessions");
  ASSERT_EQ(sessions->array.size(), 3u);
  for (const Value& s : sessions->array) {
    EXPECT_TRUE(s.find("seeded")->boolean);
    EXPECT_GT(s.find("submitted")->number, 0.0);
  }
  EXPECT_GT(root.find("rolling")->find("count")->number, 0.0);
  EXPECT_NE(root.find("registry")->find("counters")->find("server.commits"),
            nullptr);

  for (int p = 0; p < kPens; ++p) {
    server.close(static_cast<SessionId>(p));
  }
  // An empty server still emits a valid (zero-session) document.
  const Value empty_root = parse_status(server.status());
  EXPECT_TRUE(validate_status_json(empty_root).empty());
  EXPECT_DOUBLE_EQ(empty_root.find("session_count")->number, 0.0);
}

TEST(Statusz, FlagsReflectBackpressureLagAndStarvation) {
  const PolarDrawConfig cfg = small_config();
  const auto tb = make_decode_testbed(cfg, 20, 5);
  const auto tb2 = make_decode_testbed(cfg, 20, 6);
  SessionServerConfig scfg;
  scfg.stream.lag_windows = 2;
  scfg.n_workers = 1;
  scfg.backpressure_depth = 4;
  scfg.starved_after_s = 1.0;
  SessionServer server(cfg, tb.a1, tb.a2, tb.antenna_z, scfg);
  server.open(1, &tb.start);
  server.open(2, &tb2.start);
  // Session 1: 10 queued observations, never pumped -> mailbox depth 10
  // (> 4, backpressured) and stale at t=0.1 once session 2 reaches t=5.
  for (int w = 0; w < 10; ++w) {
    server.submit(1, tb.obs[static_cast<std::size_t>(w)], /*t_s=*/0.1);
  }
  for (int w = 0; w < 10; ++w) {
    server.submit(2, tb2.obs[static_cast<std::size_t>(w)],
                  /*t_s=*/0.5 * (w + 1));
  }

  const Value root = parse_status(server.status());
  ASSERT_TRUE(validate_status_json(root).empty());
  const Value* sessions = root.find("sessions");
  ASSERT_EQ(sessions->array.size(), 2u);
  const Value& s1 = sessions->array[0];
  const Value& s2 = sessions->array[1];
  EXPECT_DOUBLE_EQ(s1.find("id")->number, 1.0);
  EXPECT_TRUE(s1.find("backpressured")->boolean);
  EXPECT_TRUE(s1.find("starved")->boolean);  // 5.0 - 0.1 > 1.0
  EXPECT_FALSE(s2.find("starved")->boolean);

  const HealthReport unhealthy = server.healthz();
  EXPECT_FALSE(unhealthy.ok);
  EXPECT_NE(std::find(unhealthy.reasons.begin(), unhealthy.reasons.end(),
                      "session_backpressured"),
            unhealthy.reasons.end());
  EXPECT_NE(std::find(unhealthy.reasons.begin(), unhealthy.reasons.end(),
                      "session_starved"),
            unhealthy.reasons.end());

  // Draining the mailboxes clears the backpressure flag.
  server.pump();
  const Value drained = parse_status(server.status());
  EXPECT_FALSE(drained.find("sessions")->array[0]
                   .find("backpressured")->boolean);
  server.close(1);
  server.close(2);
}

TEST(Statusz, HealthzPassesWhenQuietAndTripsOnLatencySlo) {
  const PolarDrawConfig cfg = small_config();
  const auto tb = make_decode_testbed(cfg, 12, 7);

  // Generous thresholds: a freshly pumped single session is healthy.
  SessionServerConfig healthy_cfg;
  healthy_cfg.stream.lag_windows = 2;
  healthy_cfg.n_workers = 1;
  {
    SessionServer server(cfg, tb.a1, tb.a2, tb.antenna_z, healthy_cfg);
    EXPECT_TRUE(server.healthz().ok);  // no sessions, no latency samples
    server.open(1, &tb.start);
    for (const auto& o : tb.obs) server.submit(1, o, /*t_s=*/0.0);
    server.pump();
    const HealthReport report = server.healthz();
    EXPECT_TRUE(report.ok) << (report.reasons.empty() ? ""
                                                      : report.reasons[0]);
    server.close(1);
  }

  // An impossible SLO (p99 must be negative) trips as soon as the rolling
  // window holds any sample at all.
  SessionServerConfig strict_cfg = healthy_cfg;
  strict_cfg.healthz_p99_s = -1.0;
  {
    SessionServer server(cfg, tb.a1, tb.a2, tb.antenna_z, strict_cfg);
    server.open(1, &tb.start);
    for (const auto& o : tb.obs) server.submit(1, o, /*t_s=*/0.0);
    server.pump();
    const HealthReport report = server.healthz();
    EXPECT_FALSE(report.ok);
    ASSERT_FALSE(report.reasons.empty());
    EXPECT_EQ(report.reasons[0], "rolling_p99_above_threshold");
    server.close(1);
  }
}

TEST(Statusz, NonFiniteTimestampsAreDerivedAndCounted) {
  // submit()'s t_s feeds the rolling SLO window and statusz. A NaN or inf
  // one takes the time the two-argument overload derives (submit ordinal x
  // window length) and is counted, so statusz stays valid JSON and the
  // rolling window keeps every sample: healthz can still trip on latency.
  // A huge finite time saturates the window's step index, so later
  // samples still count.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const PolarDrawConfig cfg = small_config();
  const auto tb = make_decode_testbed(cfg, 20, 7);
  SessionServerConfig scfg;
  scfg.stream.lag_windows = 2;
  scfg.n_workers = 1;
  scfg.healthz_p99_s = -1.0;  // any sample in the window trips healthz
  const auto rolling_count = [](const Value& root) {
    return root.find("rolling")->find("count")->number;
  };
  // Streams the testbed at times w * window_s, with `bad` at windows 5-7,
  // checks statusz against the schema after every window, and returns the
  // document after the last pump.
  const auto run = [&](const std::vector<double>& bad, HealthReport* health) {
    SessionServer server(cfg, tb.a1, tb.a2, tb.antenna_z, scfg);
    server.open(1, &tb.start);
    for (std::size_t w = 0; w < tb.obs.size(); ++w) {
      double t_s = static_cast<double>(w) * cfg.window_s;
      if (w >= 5 && w - 5 < bad.size()) t_s = bad[w - 5];
      EXPECT_TRUE(server.submit(1, tb.obs[w], t_s));
      const auto problems = validate_status_json(parse_status(server.status()));
      EXPECT_TRUE(problems.empty()) << "window " << w << ": " << problems.size()
                                    << " problems, first: "
                                    << (problems.empty() ? "" : problems[0]);
      server.pump();
    }
    *health = server.healthz();
    const Value root = parse_status(server.status());
    server.close(1);
    return root;
  };

  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(true);
  reg.reset();
  HealthReport health;
  const Value finite = run({}, &health);
  reg.reset();
  const Value root = run({kNaN, kInf, -kInf}, &health);
  const Value* counter = root.find("registry")->find("counters")->find(
      "server.nonfinite_timestamps");
  EXPECT_DOUBLE_EQ(counter != nullptr ? counter->number : 0.0, 3.0);
  EXPECT_GT(rolling_count(finite), 0.0);
  EXPECT_DOUBLE_EQ(rolling_count(root), rolling_count(finite));
  EXPECT_NE(std::find(health.reasons.begin(), health.reasons.end(),
                      "rolling_p99_above_threshold"),
            health.reasons.end());

  // 1e300 at window 5: its sample commits at the pump of window 7, and
  // every later pump adds one more.
  const Value huge = run({1e300}, &health);
  EXPECT_DOUBLE_EQ(rolling_count(huge),
                   static_cast<double>(tb.obs.size() - 7));
  reg.reset();
  reg.set_enabled(false);
}

TEST(Statusz, HintedSessionIsSeededBeforeItsFirstPump) {
  // A hint seeds the decoder when the session opens, so statusz reports
  // it seeded at once; an unhinted session waits for a phase window.
  const PolarDrawConfig cfg = small_config();
  const auto tb = make_decode_testbed(cfg, 4, 9);
  SessionServer server(cfg, tb.a1, tb.a2, tb.antenna_z);
  server.open(1, &tb.start);
  server.open(2);
  const Value root = parse_status(server.status());
  const Value* sessions = root.find("sessions");
  ASSERT_EQ(sessions->array.size(), 2u);
  EXPECT_TRUE(sessions->array[0].find("seeded")->boolean);
  EXPECT_FALSE(sessions->array[1].find("seeded")->boolean);
  server.close(1);
  server.close(2);
}

/// Commit-stage report.flow ids recorded so far, sorted (quiescence
/// required, so call between pumps).
std::vector<std::uint64_t> commit_flow_ids() {
  std::vector<std::uint64_t> ids;
  for (const auto& ring : obs::Tracer::global().snapshot()) {
    for (const auto& e : ring.events) {
      if (e.ph == 'f' && e.name == "report.flow" && !e.args.empty() &&
          e.args[0].value == static_cast<double>(obs::FlowStage::kCommit)) {
        ids.push_back(e.flow_id);
      }
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(Statusz, PositionToObservationMapPinned) {
  // Every committed position is charged to the observation that created
  // it. Relative to the decoder's seed root R (no originating window),
  // position p comes from observation p for p < R and from observation
  // p - 1 for p > R. That map decides the sim time of each rolling-window
  // sample and the flow id of each commit event, so this pins all of them
  // after every pump, with the per-session statusz fields alongside.
  // Session 1 is hinted (R = 0); session 2 opens unhinted on a phaseless
  // prefix, so its backfilled positions 0..R-1 map to their own windows.
  const PolarDrawConfig cfg = small_config();
  constexpr int kWindows = 30;
  constexpr std::size_t kLag = 4;
  constexpr int kPrefix = 5;
  const auto hinted = make_decode_testbed(cfg, kWindows, 71);
  auto prefixed = make_decode_testbed(cfg, kWindows, 72);
  for (int w = 0; w < kPrefix; ++w) {
    prefixed.obs[static_cast<std::size_t>(w)].has_phase = false;
  }
  ASSERT_TRUE(prefixed.obs[kPrefix].has_phase);

  SessionServerConfig scfg;
  scfg.stream.lag_windows = kLag;
  scfg.n_workers = 2;
  scfg.slo_window_s = 0.4;  // a fraction of either stream
  scfg.slo_step_s = 0.1;
  scfg.starved_after_s = 0.3;
  SessionServer server(cfg, hinted.a1, hinted.a2, hinted.antenna_z, scfg);
  server.open(1, &hinted.start);
  server.open(2);

  // Session 1 alternates the two-argument submit (sim time derived from
  // the submit ordinal) with explicit times on the same grid; session 2
  // runs on a faster clock, so session 1 falls behind by starved_after_s.
  const auto t_hinted = [&](int w) {
    return static_cast<double>(w) * cfg.window_s;
  };
  const auto t_prefixed = [](int w) { return 0.07 * w; };
  const auto flow_of = [](SessionId id, int w) {
    return obs::flow_sample_period() *
           (100 * id + static_cast<std::uint64_t>(w) + 1);
  };
  // Flow ids of the observations behind positions [0, n_committed).
  const auto mapped_flows = [&](SessionId id, std::size_t n_committed,
                                std::size_t root) {
    std::vector<std::uint64_t> flows;
    for (std::size_t p = 0; p < n_committed; ++p) {
      if (p == root) continue;
      const int w = static_cast<int>(p < root ? p : p - 1);
      if (id == 2 || w % 2 == 1) flows.push_back(flow_of(id, w));
    }
    return flows;
  };
  // rolling.count after each pump, captured before the session record
  // was reworked.
  const std::vector<double> kRollingCount = {0, 1, 5, 9, 10, 12, 9, 8,
                                             7, 8, 7, 5, 6, 6, 7};

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_enabled(true);
  tracer.reset();
  const int kChunks[] = {2, 3, 1};
  int n = 0;
  for (std::size_t pump = 0; n < kWindows; ++pump) {
    const int chunk = std::min(kChunks[pump % 3], kWindows - n);
    for (int w = n; w < n + chunk; ++w) {
      const auto i = static_cast<std::size_t>(w);
      if (w % 2 == 0) {
        ASSERT_TRUE(server.submit(1, hinted.obs[i]));
      } else {
        ASSERT_TRUE(
            server.submit(1, hinted.obs[i], t_hinted(w), flow_of(1, w)));
      }
      ASSERT_TRUE(
          server.submit(2, prefixed.obs[i], t_prefixed(w), flow_of(2, w)));
    }
    n += chunk;
    server.pump();
    SCOPED_TRACE("after pump " + std::to_string(pump) + ", " +
                 std::to_string(n) + " windows");

    // Expected state: n windows pushed, positions [0, n + 1 - lag)
    // committed once the chain is seeded.
    const auto n_pushed = static_cast<std::size_t>(n);
    const std::size_t n_committed =
        n_pushed + 1 > kLag ? n_pushed + 1 - kLag : 0;
    const bool prefixed_seeded = n > kPrefix;
    const double last_hinted = t_hinted(n - 1);
    const double last_prefixed = t_prefixed(n - 1);
    const double now = std::max(last_hinted, last_prefixed);
    struct Expected {
      bool seeded;
      std::size_t committed;
      double last_t_s;
    };
    const Expected expected[2] = {
        {true, n_committed, last_hinted},
        {prefixed_seeded, prefixed_seeded ? n_committed : 0, last_prefixed}};

    const Value root = parse_status(server.status());
    ASSERT_TRUE(validate_status_json(root).empty());
    const Value* sessions = root.find("sessions");
    ASSERT_EQ(sessions->array.size(), 2u);
    for (std::size_t k = 0; k < 2; ++k) {
      const Value& s = sessions->array[k];
      const Expected& e = expected[k];
      const std::size_t commit_lag = n_pushed - e.committed;
      SCOPED_TRACE("session " + std::to_string(k + 1));
      EXPECT_EQ(s.find("id")->number, static_cast<double>(k + 1));
      EXPECT_EQ(s.find("seeded")->boolean, e.seeded);
      EXPECT_EQ(s.find("mailbox_depth")->number, 0.0);
      EXPECT_EQ(s.find("submitted")->number, static_cast<double>(n));
      EXPECT_EQ(s.find("committed")->number,
                static_cast<double>(e.committed));
      EXPECT_EQ(s.find("commit_lag")->number,
                static_cast<double>(commit_lag));
      EXPECT_EQ(s.find("last_t_s")->number, e.last_t_s);
      EXPECT_EQ(s.find("lagging")->boolean, commit_lag > kLag);
      EXPECT_EQ(s.find("starved")->boolean,
                now - e.last_t_s > scfg.starved_after_s);
      EXPECT_FALSE(s.find("backpressured")->boolean);
    }
    ASSERT_LT(pump, kRollingCount.size());
    EXPECT_EQ(root.find("rolling")->find("count")->number,
              kRollingCount[pump]);

    std::vector<std::uint64_t> flows = mapped_flows(1, n_committed, 0);
    if (prefixed_seeded) {
      const auto more = mapped_flows(2, n_committed, kPrefix);
      flows.insert(flows.end(), more.begin(), more.end());
    }
    std::sort(flows.begin(), flows.end());
    EXPECT_EQ(commit_flow_ids(), flows);
  }
  tracer.reset();
  tracer.set_enabled(false);
  server.close(1);
  server.close(2);
}

TEST(Statusz, LogCountersSurfaceInTheDocument) {
  // Wire the global logger to a buffer: session open/close events emit,
  // and the statusz log block carries the running totals.
  std::ostringstream sink;
  obs::Logger& lg = obs::Logger::global();
  const std::uint64_t before = lg.emitted_total();
  lg.set_sink(&sink);

  const PolarDrawConfig cfg = small_config();
  const auto tb = make_decode_testbed(cfg, 8, 3);
  SessionServer server(cfg, tb.a1, tb.a2, tb.antenna_z);
  server.open(1, &tb.start);
  for (const auto& o : tb.obs) server.submit(1, o, /*t_s=*/0.0);
  server.pump();
  const Value root = parse_status(server.status());
  server.close(1);
  lg.set_sink(nullptr);

  EXPECT_GT(lg.emitted_total(), before);
  ASSERT_NE(root.find("log"), nullptr);
  EXPECT_GE(root.find("log")->find("emitted")->number, 1.0);
  // The open event is one JSON line in the sink.
  EXPECT_NE(sink.str().find("\"event\":\"server.session_open\""),
            std::string::npos);
  EXPECT_NE(sink.str().find("\"event\":\"server.session_close\""),
            std::string::npos);
}

}  // namespace
}  // namespace polardraw::server
