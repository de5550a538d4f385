#include "core/association.h"

#include <utility>

#include "obs/json_writer.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace polardraw::core {

namespace {
const obs::Counter& opened_counter() {
  static const obs::Counter c("assoc.sessions_opened");
  return c;
}
const obs::Counter& closed_counter() {
  static const obs::Counter c("assoc.sessions_closed");
  return c;
}
const obs::Counter& observations_counter() {
  static const obs::Counter c("assoc.observations");
  return c;
}
const obs::Counter& empty_windows_counter() {
  static const obs::Counter c("assoc.empty_windows");
  return c;
}
const obs::Counter& phase_rejected_counter() {
  static const obs::Counter c("assoc.phase_rejected");
  return c;
}
}  // namespace

/// Per-pen state: the shared window clock, phase gate and motion front
/// end, plus the routing, lifecycle and flow-id bookkeeping around them.
struct TagTrackAssociator::Track {
  Track(const PolarDrawConfig& cfg, std::uint32_t epc_, std::uint32_t gen,
        double t_first)
      : epc(epc_),
        generation(gen),
        session_id(make_session_id(epc_, gen)),
        last_report_s(t_first),
        clock(2, cfg.window_s),
        gate(cfg.spurious_phase_threshold_rad),
        front(cfg) {}

  std::uint32_t epc;
  std::uint32_t generation;
  std::uint64_t session_id;
  double last_report_s;  // latest report routed to this generation

  rfid::WindowClock clock;
  PhaseGate gate;
  MotionFrontEnd front;
  std::uint64_t flow_serial = 0;  // first sampled report in `clock`
  std::uint64_t held_flow = 0;    // flow id of the front end's held window
};

TagTrackAssociator::TagTrackAssociator(const PolarDrawConfig& cfg,
                                       AssociatorConfig acfg,
                                       const PhaseCalibration* calibration)
    : cfg_(cfg), acfg_(acfg) {
  if (calibration != nullptr) calibration_ = *calibration;
}

TagTrackAssociator::~TagTrackAssociator() = default;

std::vector<PenEvent> TagTrackAssociator::push(const rfid::TagReport& r) {
  std::vector<PenEvent> out;
  if (!rfid::admit_report(r)) return out;
  close_stale(r.timestamp_s, out);
  route(r, out);
  return out;
}

std::vector<PenEvent> TagTrackAssociator::push(
    const rfid::TagReportStream& reports) {
  std::vector<PenEvent> out;
  for (const auto& r : reports) {
    if (!rfid::admit_report(r)) continue;
    close_stale(r.timestamp_s, out);
    route(r, out);
  }
  return out;
}

std::vector<PenEvent> TagTrackAssociator::flush() {
  std::vector<PenEvent> out;
  for (auto& [epc, track] : tracks_) close_track(*track, out);
  tracks_.clear();
  return out;
}

void TagTrackAssociator::close_stale(double t_s, std::vector<PenEvent>& out) {
  for (auto it = tracks_.begin(); it != tracks_.end();) {
    if (t_s - it->second->last_report_s > acfg_.idle_close_s) {
      close_track(*it->second, out);
      it = tracks_.erase(it);
    } else {
      ++it;
    }
  }
}

TagTrackAssociator::Track& TagTrackAssociator::open_track(
    std::uint32_t epc, double t_s, std::vector<PenEvent>& out) {
  const std::uint32_t gen = generations_[epc]++;
  auto track = std::make_unique<Track>(cfg_, epc, gen, t_s);
  PenEvent ev;
  ev.type = PenEventType::kOpen;
  ev.session_id = track->session_id;
  ev.epc = epc;
  ev.t_s = t_s;
  out.push_back(ev);
  opened_counter().add(1);
  return *(tracks_[epc] = std::move(track));
}

void TagTrackAssociator::route(const rfid::TagReport& r,
                               std::vector<PenEvent>& out) {
  if (r.antenna_id < 0 || r.antenna_id > 1) return;
  auto it = tracks_.find(r.epc);
  Track& track = it != tracks_.end() ? *it->second
                                     : open_track(r.epc, r.timestamp_s, out);
  // Run the windows the report finishes through the pipeline, empty gap
  // windows included: downstream sees a gap as idle windows, as in batch.
  const auto finalize = [&](const rfid::ClockWindow& finished) {
    finalize_window(track, finished, out);
  };
  if (!track.clock.add(r, &calibration_, finalize)) return;
  // First sampled report to land in this window carries the flow chain.
  if (track.flow_serial == 0 && obs::flow_sampled(r.serial)) {
    track.flow_serial = r.serial;
  }
  track.last_report_s = r.timestamp_s;
}

void TagTrackAssociator::finalize_window(Track& track,
                                         const rfid::ClockWindow& finished,
                                         std::vector<PenEvent>& out) {
  Window win = to_window(finished);
  if (win.read_count[0] == 0 && win.read_count[1] == 0) {
    empty_windows_counter().add(1);
  }
  const std::uint64_t flow_serial = std::exchange(track.flow_serial, 0);
  obs::record_report_flow('t', flow_serial, obs::FlowStage::kWindow);

  for (int a = 0; a < 2; ++a) {
    const PhaseGate::Verdict verdict = track.gate.gate(win, a);
    auto& lg = obs::Logger::global();
    if (verdict.fenced_from_channel && lg.enabled()) {
      lg.log(obs::LogLevel::kInfo, win.t_s, "assoc.hop_fence",
             [&](obs::JsonWriter& w) {
               w.kv("session", track.session_id);
               w.kv("antenna", a);
               w.kv("window", win.index);
               w.kv("from_channel", *verdict.fenced_from_channel);
               w.kv("to_channel", win.channel[a]);
             });
    }
    if (verdict.outcome == PhaseGate::Outcome::kSpurious) {
      phase_rejected_counter().add(1);
    } else if (verdict.outcome == PhaseGate::Outcome::kNonMonotone &&
               lg.enabled()) {
      lg.log(obs::LogLevel::kWarn, win.t_s, "assoc.non_monotone",
             [&](obs::JsonWriter& w) {
               w.kv("session", track.session_id);
               w.kv("antenna", a);
               w.kv("window", win.index);
             });
    }
  }

  const MotionFrontEnd::Step step = track.front.push(win);
  if (step.released) emit_observation(track, *step.released, out);
  track.held_flow = flow_serial;
}

void TagTrackAssociator::emit_observation(const Track& track,
                                          const TimedObservation& released,
                                          std::vector<PenEvent>& out) {
  PenEvent ev;
  ev.type = PenEventType::kObservation;
  ev.session_id = track.session_id;
  ev.epc = track.epc;
  ev.t_s = released.t_s;
  ev.obs = released.obs;
  ev.flow_id = track.held_flow;
  out.push_back(ev);
  observations_counter().add(1);
}

void TagTrackAssociator::close_track(Track& track, std::vector<PenEvent>& out) {
  // A partially-filled window still holds reads: run it through.
  track.clock.flush([&](const rfid::ClockWindow& finished) {
    finalize_window(track, finished, out);
  });
  if (auto tail = track.front.flush()) emit_observation(track, *tail, out);
  PenEvent ev;
  ev.type = PenEventType::kClose;
  ev.session_id = track.session_id;
  ev.epc = track.epc;
  ev.t_s = track.last_report_s;
  ev.azimuth_correction_rad = track.front.azimuth_correction_rad();
  out.push_back(ev);
  closed_counter().add(1);
}

}  // namespace polardraw::core
