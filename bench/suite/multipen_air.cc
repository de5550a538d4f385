// multipen_air: eight pens share one reader's air. One MAC-arbitrated Gen2
// inventory (default reader: ~100 reads/s aggregate, frequency hopping with
// per-channel calibration) feeds core::TagTrackAssociator, whose events
// drive SessionServer::ingest with a pump() every 32 reports; two pens
// enter at 30% of the run and one leaves at 70%, as in bench_multipen.
// A run replays 10 scenes (seeds splitmix64(seed, i)) of 20 s of air. A
// scene's CPU cost per pen-second is fixed by its seed (by the reader's
// random stream, hardly by the handwriting) and differs from scene to
// scene by about 15%, so a run reports the total over its scenes.
//
// It is the only workload that exercises Gen2 and association. With eight
// tags splitting ~100 reads/s most windows carry no phase pair, so the
// decoder's hyperbola path does little work here: this is the bypass case
// for hyperbola and kernel changes. Each pen's closed trajectory is scored
// against its ground truth with recognition::procrustes_distance.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "core/association.h"
#include "core/phase_field.h"
#include "handwriting/synthesizer.h"
#include "recognition/procrustes.h"
#include "server/session_server.h"
#include "sim/scene.h"
#include "suite.h"

namespace polarbench {

namespace {

using polardraw::Vec2;
namespace core = polardraw::core;
namespace sim = polardraw::sim;

constexpr std::size_t kPens = 8;
constexpr std::size_t kReportsPerPump = 32;

struct Pen {
  std::uint32_t epc = 0;
  polardraw::handwriting::WritingTrace trace;
  std::vector<Vec2> truth;
  double t_enter_s = 0.0;
  double t_leave_s = 0.0;
};

/// One replayable scene: its config, pens and the pipeline parts that are
/// set-up rather than work (the reader's RNG advances as it runs, so every
/// replay starts from a freshly built Pipeline).
struct SceneInputs {
  sim::SceneConfig scene;
  std::vector<Pen> pens;
};

struct Pipeline {
  explicit Pipeline(const SceneInputs& in)
      : scene(in.scene), algo(make_algo(in.scene)) {
    core::PhaseCalibration cal;
    cal.port_offsets_rad = scene.reader().port_phase_offsets();
    for (int c = 0; c < in.scene.reader.hop_channels; ++c) {
      cal.channel_offsets_rad.push_back(
          polardraw::rfid::Reader::hop_channel_offset_rad(c));
    }
    assoc = std::make_unique<core::TagTrackAssociator>(algo, core::AssociatorConfig{},
                                                       &cal);
    const auto apos = scene.antenna_board_positions();
    polardraw::server::SessionServerConfig scfg;
    scfg.n_workers = kWorkers;
    server = std::make_unique<polardraw::server::SessionServer>(
        algo, apos[0], apos[1], in.scene.antenna_standoff_m, scfg);
  }

  static core::PolarDrawConfig make_algo(const sim::SceneConfig& scene) {
    core::PolarDrawConfig algo;
    algo.gamma_rad = scene.gamma_rad;
    return algo;
  }

  sim::Scene scene;
  core::PolarDrawConfig algo;
  std::unique_ptr<core::TagTrackAssociator> assoc;
  std::unique_ptr<polardraw::server::SessionServer> server;
};

SceneInputs make_scene(std::uint64_t seed, double air_s) {
  SceneInputs in;
  in.scene.seed = seed;
  in.scene.reader.frequency_hopping = true;
  in.scene.reader.auto_select_modulation = false;
  polardraw::Rng rng(pen_seed(seed, 1));
  const std::string letters = "MZANKWOS";
  for (std::size_t p = 0; p < kPens; ++p) {
    polardraw::handwriting::SynthesisConfig synth;
    synth.auto_center = false;
    synth.origin = {0.08 + 0.11 * static_cast<double>(p % 4), p < 4 ? 0.12 : 0.38};
    synth.user = polardraw::handwriting::user_style(1 + static_cast<int>(p % 4));
    Pen pen;
    pen.epc = 0xA0u + static_cast<std::uint32_t>(p);
    pen.trace = polardraw::handwriting::synthesize(std::string(1, letters[p]),
                                                   synth, rng);
    pen.truth = polardraw::handwriting::flatten_strokes(pen.trace.ground_truth);
    pen.t_enter_s = p >= kPens - 2 ? 0.3 * air_s : 0.0;
    pen.t_leave_s = p == 0 ? 0.7 * air_s : air_s;
    in.pens.push_back(std::move(pen));
  }
  return in;
}

/// Everything one replay of one scene produced.
struct Replay {
  std::vector<polardraw::server::SessionServer::ClosedSession> closed;
  std::size_t live_commits = 0;
  std::size_t observations = 0;
  std::size_t phase_observations = 0;
  std::vector<std::size_t> reads;  // per pen
};

/// Timings accumulated over replays.
struct Timings {
  // Per observation window: from the arrival of the report chunk that
  // completed it to the return of the pump that decoded it (closing
  // windows: to the end of the flush's ingest, which closes the sessions).
  std::vector<double> window_ms;
  double cpu_s = 0.0, wall_s = 0.0, rfid_s = 0.0, assoc_s = 0.0, busy_s = 0.0;
  std::size_t pumps = 0, pumped_windows = 0;

  void add(const Timings& o) {
    window_ms.insert(window_ms.end(), o.window_ms.begin(), o.window_ms.end());
    cpu_s += o.cpu_s;
    wall_s += o.wall_s;
    rfid_s += o.rfid_s;
    assoc_s += o.assoc_s;
    busy_s += o.busy_s;
    pumps += o.pumps;
    pumped_windows += o.pumped_windows;
  }
};

/// One replay: inventory -> associator -> server, pump every 32 reports.
/// Builds its own Pipeline first (untimed).
Replay replay(const SceneInputs& in, double air_s, Timings& t) {
  Pipeline pipe(in);
  std::vector<polardraw::rfid::TagEntry> tags;
  for (const Pen& pen : in.pens) {
    const auto* trace = &pen.trace;
    const double t_enter = pen.t_enter_s;
    tags.push_back(polardraw::rfid::TagEntry{
        pen.epc,
        [trace, t_enter](double t_s) { return sim::tag_at_time(*trace, t_s - t_enter); },
        pen.t_enter_s, pen.t_leave_s});
  }
  Replay rep;
  const auto ingest = [&](const std::vector<core::PenEvent>& events) {
    for (const auto& ev : events) {
      if (ev.type != core::PenEventType::kObservation) continue;
      ++rep.observations;
      if (ev.obs.has_phase) ++rep.phase_observations;
    }
    return pipe.server->ingest(events, &rep.closed);
  };

  const double c0 = process_cpu_s();
  const auto t0 = Clock::now();
  const auto reports = pipe.scene.reader().inventory_population(tags, 0.0, air_s);
  const auto t1 = Clock::now();
  trace_span("bench.rfid.inventory_population", t0, t1);
  t.rfid_s += seconds_between(t0, t1);
  for (std::size_t k = 0; k < reports.size(); k += kReportsPerPump) {
    const polardraw::rfid::TagReportStream chunk(
        reports.begin() + static_cast<std::ptrdiff_t>(k),
        reports.begin() +
            static_cast<std::ptrdiff_t>(std::min(k + kReportsPerPump, reports.size())));
    const auto s0 = Clock::now();
    const auto events = pipe.assoc->push(chunk);
    const auto s1 = Clock::now();
    const std::size_t n_obs = ingest(events);
    const auto p0 = Clock::now();
    rep.live_commits += pipe.server->pump();
    const auto p1 = Clock::now();
    trace_span("bench.assoc.push", s0, s1);
    trace_span("bench.server.pump", p0, p1);
    t.assoc_s += seconds_between(s0, s1);
    t.busy_s += seconds_between(p0, p1);
    ++t.pumps;
    t.pumped_windows += n_obs;
    t.window_ms.insert(t.window_ms.end(), n_obs, 1e3 * seconds_between(s0, p1));
  }
  const auto f0 = Clock::now();
  const auto tail = pipe.assoc->flush();
  const auto f1 = Clock::now();
  trace_span("bench.assoc.flush", f0, f1);
  t.assoc_s += seconds_between(f0, f1);
  const std::size_t n_tail = ingest(tail);
  const auto f2 = Clock::now();
  t.window_ms.insert(t.window_ms.end(), n_tail, 1e3 * seconds_between(f0, f2));
  t.cpu_s += process_cpu_s() - c0;
  t.wall_s += seconds_between(t0, f2);

  rep.reads.assign(kPens, 0);
  for (const auto& report : reports) {
    if (report.epc >= 0xA0u && report.epc < 0xA0u + kPens) ++rep.reads[report.epc - 0xA0u];
  }
  return rep;
}

bool same_replay(const Replay& a, const Replay& b) {
  if (a.closed.size() != b.closed.size()) return false;
  for (std::size_t s = 0; s < a.closed.size(); ++s) {
    if (a.closed[s].id != b.closed[s].id ||
        !bit_identical(a.closed[s].trajectory, b.closed[s].trajectory)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result multipen_air(const Options& opts) {
  Result r;
  const double air_s = opts.smoke ? 2.0 : 20.0;
  const std::size_t scenes = opts.smoke ? 2 : 10;
  std::vector<SceneInputs> inputs;
  for (std::size_t i = 0; i < scenes; ++i) {
    inputs.push_back(make_scene(pen_seed(opts.seed, i), air_s));
  }
  // Set-up: Scene (reader, channel, rig) + associator + server.
  std::unique_ptr<Pipeline> pipe;
  r.set("setup_s", median_setup_s(opts.smoke ? 3 : 15, pipe, [&] {
          return std::make_unique<Pipeline>(inputs[0]);
        }));
  pipe.reset();
  // Warm-up, untimed and unrecorded: one replay of scene 0, so the
  // allocator holds the sessions' memory before timing starts. The
  // measured replay of scene 0 must reproduce it.
  Replay warm;
  {
    const ObsPause pause;
    Timings scratch;
    warm = replay(inputs[0], air_s, scratch);
  }

  // Every scene once; then scenes again, in order, while time remains,
  // each checked against its first replay.
  std::vector<Replay> first;
  Timings t;
  Units units;
  std::size_t replays = 0;
  double last_s = 0.0;
  const auto t_start = Clock::now();
  while (first.size() < scenes ||
         another_unit(seconds_between(t_start, Clock::now()), last_s, opts.seconds)) {
    const std::size_t i = replays++ % scenes;
    Timings scene_t;
    Replay rep = replay(inputs[i], air_s, scene_t);
    double scene_pen_s = 0.0;
    for (const Pen& pen : inputs[i].pens) scene_pen_s += pen.t_leave_s - pen.t_enter_s;
    units.add(scene_pen_s, scene_t.cpu_s, scene_t.wall_s, scene_t.window_ms);
    t.add(scene_t);
    last_s = scene_t.wall_s;
    const Replay* ref = i < first.size() ? &first[i] : i == 0 ? &warm : nullptr;
    if (ref != nullptr) {
      ++r.attempted;
      if (!same_replay(*ref, rep)) {
        ++r.failed;
        r.fail("scene " + std::to_string(i) + " did not reproduce its first replay");
      }
    }
    if (i == first.size()) first.push_back(std::move(rep));
  }

  // Score each pen against its ground truth: its longest closed session.
  std::vector<double> procrustes_mm;
  std::size_t live = 0, positions = 0, observations = 0, phased = 0;
  double min_reads_per_s = 1e300;
  for (std::size_t i = 0; i < scenes; ++i) {
    const Replay& rep = first[i];
    live += rep.live_commits;
    observations += rep.observations;
    phased += rep.phase_observations;
    for (const auto& c : rep.closed) positions += c.trajectory.size();
    for (std::size_t p = 0; p < kPens; ++p) {
      const Pen& pen = inputs[i].pens[p];
      min_reads_per_s = std::min(
          min_reads_per_s,
          static_cast<double>(rep.reads[p]) / (pen.t_leave_s - pen.t_enter_s));
      const std::vector<Vec2>* best = nullptr;
      for (const auto& c : rep.closed) {
        if (c.epc == pen.epc &&
            (best == nullptr || c.trajectory.size() > best->size())) {
          best = &c.trajectory;
        }
      }
      ++r.attempted;
      if (best == nullptr || best->empty() || !all_finite(*best)) {
        ++r.failed;
        r.fail("scene " + std::to_string(i) + " pen " + std::to_string(p) +
               ": no finite closed positions");
        continue;
      }
      procrustes_mm.push_back(
          1e3 * polardraw::recognition::procrustes_distance(pen.truth, *best));
    }
  }

  units.report(r);
  r.note("replays", static_cast<double>(replays), "scenes");
  r.note("pen_seconds_per_s", units.wall_rate(), "pen*s/s");
  r.note("window_latency_p50_ms", units.latency(50.0), "ms");
  r.note("window_latency_p99_ms", units.latency(99.0), "ms");
  r.note("procrustes_p50_mm", pct(procrustes_mm, 50.0), "mm");
  r.note("live_commit_fraction",
         ratio(static_cast<double>(live), static_cast<double>(positions)),
         "fraction");

  if (opts.traced) {
    const auto snap = polardraw::obs::Registry::global().snapshot();
    const auto c = [&](const char* name) {
      return static_cast<double>(snap.counter(name));
    };
    {
      const ObsPause pause;
      const Pipeline probe(inputs[0]);
      const auto apos = probe.scene.antenna_board_positions();
      r.set("decode.phase_field_build_ms",
            phase_field_build_ms(probe.algo, apos[0], apos[1],
                                 inputs[0].scene.antenna_standoff_m, opts.smoke));
    }
    r.set("server.pump_busy_fraction", ratio(t.busy_s, t.wall_s));
    r.set("server.windows_per_pump", ratio(static_cast<double>(t.pumped_windows),
                                           static_cast<double>(t.pumps)));
    r.set("server.windows_per_busy_s",
          ratio(static_cast<double>(t.pumped_windows), t.busy_s));
    r.set("rfid.share", ratio(t.rfid_s, t.wall_s));
    r.set("rfid.min_tag_reads_per_s", min_reads_per_s);
    const double slots = c("rfid.gen2.singletons") + c("rfid.gen2.collisions") +
                         c("rfid.gen2.empties");
    r.set("rfid.collision_fraction", ratio(c("rfid.gen2.collisions"), slots));
    r.set("assoc.share", ratio(t.assoc_s, t.wall_s));
    r.set("assoc.phase_window_fraction",
          ratio(static_cast<double>(phased), static_cast<double>(observations)));
    r.set("assoc.empty_window_fraction",
          ratio(c("assoc.empty_windows"), c("assoc.observations")));
    r.set("motion.rotational_fraction",
          ratio(c("rotation.steps"), c("assoc.observations")));
  }
  return r;
}

}  // namespace polarbench
