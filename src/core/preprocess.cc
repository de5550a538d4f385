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

PhaseGate::Verdict PhaseGate::gate(Window& win, int a) {
  Verdict verdict;
  if (!win.phase_valid[a]) return verdict;
  Reference& ref = ref_[a];
  const double wrapped = win.phase_rad[a];
  if (ref.have && win.channel[a] != ref.channel &&
      !(ref.calibrated && win.channel_calibrated[a])) {
    // Frequency hop across an uncalibrated boundary: the per-channel
    // offset makes this phase incomparable with the previous one; restart
    // the comparison and the unwrapper at this window (the sample itself
    // stays valid). When BOTH sides are channel-calibrated the offsets
    // were already removed at bucketing time, so the comparison continues
    // through the hop; the residual carrier-frequency term is small
    // enough for the spurious threshold to absorb (DESIGN.md section 16).
    verdict.fenced_from_channel = ref.channel;
    win.hop_fenced[a] = true;
    ref.have = false;
    ref.unwrapper.reset();
  }
  if (ref.have) {
    // The comparison reference is the last *valid* window, which may be
    // several windows back (reads drop out during deep mismatch).
    // Legitimate phase slews up to the threshold per elapsed window;
    // scaling the allowance by the gap keeps one spurious reading from
    // cascading into rejecting the entire remaining stream.
    const int gap = std::max(1, win.index - ref.index);
    const double allowed = threshold_ * static_cast<double>(gap);
    if (angle_dist(wrapped, ref.wrapped) > std::min(allowed, kPi)) {
      // Reject the phase reading (keep RSS: the paper only rejects phase
      // -- RSS remains physical during mismatch).
      win.phase_valid[a] = false;
      verdict.outcome = Outcome::kSpurious;
      return verdict;
    }
  }
  const std::uint64_t refused_before = ref.unwrapper.nonmonotone_rejected();
  const double unwrapped = ref.unwrapper.push_at(wrapped, win.t_s);
  if (ref.unwrapper.nonmonotone_rejected() != refused_before) {
    // The unwrapper refused the sample (non-monotone window time): drop
    // the phase so the stale unwrapped value cannot leak into the window,
    // and keep the spurious-rejection reference at the last accepted
    // sample so it stays in lockstep with the unwrapper's own reference.
    win.phase_valid[a] = false;
    verdict.outcome = Outcome::kNonMonotone;
    return verdict;
  }
  ref.have = true;
  ref.wrapped = wrapped;
  ref.index = win.index;
  ref.channel = win.channel[a];
  ref.calibrated = win.channel_calibrated[a];
  win.phase_rad[a] = unwrapped;
  verdict.outcome = Outcome::kAccepted;
  return verdict;
}

std::vector<Window> preprocess(const rfid::TagReportStream& reports,
                               const PolarDrawConfig& cfg,
                               const PhaseCalibration* calibration) {
  static const obs::SpanSite span_site("core.preprocess");
  const obs::ScopedSpan span(span_site);
  std::vector<Window> out;

  // --- Step 1: window averaging ------------------------------------------
  // Capped at rfid::kMaxWindows windows in all, so that jumps each under
  // the clock's per-read bound cannot add up to more.
  rfid::WindowClock clock(2, cfg.window_s, rfid::kMaxWindows);
  const auto keep = [&out](const rfid::ClockWindow& finished) {
    out.push_back(to_window(finished));
  };
  for (const auto& r : reports) clock.add(r, calibration, keep);
  clock.flush(keep);

  // --- Step 2: spurious phase rejection + unwrap --------------------------
  std::uint64_t rejected = 0;
  std::uint64_t nonmonotone = 0;
  PhaseGate gate(cfg.spurious_phase_threshold_rad);
  for (Window& win : out) {
    for (int a = 0; a < 2; ++a) {
      switch (gate.gate(win, a).outcome) {
        case PhaseGate::Outcome::kSpurious: ++rejected; break;
        case PhaseGate::Outcome::kNonMonotone: ++nonmonotone; break;
        case PhaseGate::Outcome::kNoPhase:
        case PhaseGate::Outcome::kAccepted: break;
      }
    }
  }
  static const obs::Counter windows_counter("preprocess.windows");
  static const obs::Counter rejected_counter("preprocess.phase_rejected");
  static const obs::Counter nonmonotone_counter("preprocess.nonmonotone_reports");
  windows_counter.add(out.size());
  rejected_counter.add(rejected);
  nonmonotone_counter.add(nonmonotone);
  return out;
}

}  // namespace polardraw::core
