#include "core/preprocess.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace polardraw::core {

Window to_window(const rfid::ClockWindow& finished) {
  Window win;
  win.index = finished.index;
  win.t_s = finished.t_s;
  for (int a = 0; a < 2; ++a) {
    const rfid::PortSums& port = finished.ports[static_cast<std::size_t>(a)];
    if (port.reads == 0) continue;
    win.rss_dbm[a] = port.mean_rss_dbm();
    win.rss_valid[a] = true;
    win.read_count[a] = port.reads;
    if (const auto m = port.mean_phase_rad()) {
      win.phase_rad[a] = *m;
      win.phase_valid[a] = true;
      win.channel[a] = port.channel;
      // Cross-hop comparison is only safe when every phase read fed
      // through a calibrated channel (a single uncovered read would mix
      // an unremoved RF-chain offset into the circular mean).
      win.channel_calibrated[a] = port.uncalibrated == 0;
    }
  }
  return win;
}

namespace {
const obs::Counter& phase_rejected_counter() {
  static const obs::Counter c("preprocess.phase_rejected");
  return c;
}
}  // namespace

PhaseGate::PhaseGate(double spurious_threshold_rad)
    : threshold_(spurious_threshold_rad) {
  phase_rejected_counter();  // exports carry the key even at 0
}

std::optional<int> PhaseGate::gate(Window& win, int a) {
  if (!win.phase_valid[a]) return std::nullopt;
  Reference& ref = ref_[a];
  PhaseUnwrapper& unwrapper = ref.unwrapper;
  const double wrapped = win.phase_rad[a];
  std::optional<int> fenced_from;
  if (unwrapper.has_value() && win.channel[a] != ref.channel &&
      !(ref.calibrated && win.channel_calibrated[a])) {
    // Frequency hop across an uncalibrated boundary: the per-channel
    // offset makes this phase incomparable with the previous one; restart
    // the comparison and the unwrapper at this window (the sample itself
    // stays valid). When BOTH sides are channel-calibrated the offsets
    // were already removed at bucketing time, so the comparison continues
    // through the hop; the residual carrier-frequency term is small
    // enough for the spurious threshold to absorb (DESIGN.md section 16).
    fenced_from = ref.channel;
    win.hop_fenced[a] = true;
    unwrapper.reset();
  }
  if (unwrapper.has_value()) {
    // The comparison reference is the last *valid* window, which may be
    // several windows back (reads drop out during deep mismatch).
    // Legitimate phase slews up to the threshold per elapsed window;
    // scaling the allowance by the gap keeps one spurious reading from
    // cascading into rejecting the entire remaining stream.
    const int gap = std::max(1, win.index - ref.index);
    const double allowed = threshold_ * static_cast<double>(gap);
    if (angle_dist(wrapped, unwrapper.last_wrapped()) >
        std::min(allowed, kPi)) {
      // Reject the phase reading (keep RSS: the paper only rejects phase
      // -- RSS remains physical during mismatch).
      win.phase_valid[a] = false;
      phase_rejected_counter().add(1);
      return std::nullopt;
    }
  }
  win.phase_rad[a] = unwrapper.push(wrapped);
  ref.index = win.index;
  ref.channel = win.channel[a];
  ref.calibrated = win.channel_calibrated[a];
  return fenced_from;
}

std::vector<Window> preprocess(const rfid::TagReportStream& reports,
                               const PolarDrawConfig& cfg,
                               const PhaseCalibration* calibration) {
  static const obs::SpanSite span_site("core.preprocess");
  const obs::ScopedSpan span(span_site);
  std::vector<Window> out;
  // Step 1 (window averaging) is the clock, capped at rfid::kMaxWindows
  // windows in all so that jumps each under its per-read bound cannot add
  // up to more; step 2 gates each window as the clock finishes it.
  rfid::WindowClock clock(2, cfg.window_s, rfid::kMaxWindows);
  PhaseGate gate(cfg.spurious_phase_threshold_rad);
  const auto keep = [&out, &gate](const rfid::ClockWindow& finished) {
    Window& win = out.emplace_back(to_window(finished));
    for (int a = 0; a < 2; ++a) gate.gate(win, a);
  };
  for (const auto& r : reports) clock.add(r, calibration, keep);
  clock.flush(keep);
  static const obs::Counter windows_counter("preprocess.windows");
  windows_counter.add(out.size());
  return out;
}

}  // namespace polardraw::core
