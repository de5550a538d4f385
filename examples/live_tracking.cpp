// Live consumption of the PolarDraw pipeline.
//
// Shows how an application sits on the live path, the "electronic
// whiteboard" loop: raw LLRP-style tag reports go, as they arrive, through
// the tag-to-track associator (per-pen windowing and motion front end) into
// the session server, which decodes each pen with a fixed-lag streaming
// decoder. Once per second of reads the loop pumps the server and prints
// the positions committed so far, with the per-window motion
// classification (the rotational/translational split of section 3.3).
// Each second costs only that second's reads. When the stream ends,
// flushing the associator closes the session and the server returns the
// closed trail, Eq. 10 correction applied.
//
//   $ ./live_tracking [letter]
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "core/association.h"
#include "handwriting/synthesizer.h"
#include "server/session_server.h"
#include "sim/scene.h"

using namespace polardraw;

int main(int argc, char** argv) {
  const std::string text = argc > 1 ? argv[1] : "S";

  sim::SceneConfig scene_cfg;
  scene_cfg.seed = 99;
  sim::Scene scene(scene_cfg);
  Rng rng(123);
  handwriting::SynthesisConfig synth;
  const auto trace = handwriting::synthesize(text, synth, rng);
  const auto reports = scene.run(trace);

  core::PolarDrawConfig algo;
  algo.gamma_rad = scene_cfg.gamma_rad;
  const auto apos = scene.antenna_board_positions();
  const core::PhaseCalibration cal{scene.reader().port_phase_offsets(), {}};
  core::TagTrackAssociator assoc(algo, {}, &cal);
  server::SessionServer server(algo, apos[0], apos[1],
                               scene.antennas()[0].position.z);

  std::vector<server::SessionServer::ClosedSession> closed;
  std::uint64_t session = 0;  // the pen's newest session
  int rotational = 0, translational = 0, idle = 0;
  const auto tally = [&](const std::vector<core::PenEvent>& events) {
    for (const core::PenEvent& e : events) {
      if (e.type == core::PenEventType::kOpen) session = e.session_id;
      if (e.type != core::PenEventType::kObservation) continue;
      switch (e.obs.direction.type) {
        case core::MotionType::kRotational: ++rotational; break;
        case core::MotionType::kTranslational: ++translational; break;
        case core::MotionType::kIdle: ++idle; break;
      }
    }
  };

  // Consume the stream in 1-second chunks, as a UI would.
  std::size_t cursor = 0;
  for (double t = 1.0; cursor < reports.size(); t += 1.0) {
    std::vector<core::PenEvent> events;
    while (cursor < reports.size() && reports[cursor].timestamp_s <= t) {
      const auto ev = assoc.push(reports[cursor++]);
      events.insert(events.end(), ev.begin(), ev.end());
    }
    tally(events);
    server.ingest(events, &closed);
    server.pump();
    const auto committed = server.committed(session);
    std::cout << "t=" << fmt(t, 1) << "s  reads=" << cursor
              << "  committed=" << committed.size() << "  (rot " << rotational
              << " / trans " << translational << " / idle " << idle << ")";
    if (!committed.empty()) {
      std::cout << "  pen at (" << fmt(100.0 * committed.back().x, 1) << ", "
                << fmt(100.0 * committed.back().y, 1) << ") cm";
    }
    std::cout << "\n";
  }
  const auto tail = assoc.flush();
  tally(tail);
  server.ingest(tail, &closed);

  for (const auto& c : closed) {
    std::vector<std::pair<double, double>> pts;
    for (const auto& p : c.trajectory) pts.emplace_back(p.x, p.y);
    std::cout << "\nClosed trail, session " << c.id << " ("
              << c.trajectory.size() << " positions):\n"
              << ascii_plot(pts, 60, 16) << "\n";
  }
  return closed.empty() ? 1 : 0;
}
