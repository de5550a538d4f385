#include "core/preprocess.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace polardraw::core {

std::optional<double> circular_mean(const std::vector<double>& phases) {
  if (phases.empty()) return std::nullopt;
  double sx = 0.0, sy = 0.0;
  for (double p : phases) {
    sx += std::cos(p);
    sy += std::sin(p);
  }
  // A near-uniform phase set cancels to a resultant of rounding-noise
  // magnitude; atan2 of that noise is a meaningless direction. Each of the
  // n cos/sin terms contributes O(eps) rounding error, so anything below
  // a few n*eps is indistinguishable from exact cancellation.
  const double noise_floor = 8.0 * std::numeric_limits<double>::epsilon() *
                             static_cast<double>(phases.size());
  if (std::hypot(sx, sy) <= noise_floor) return std::nullopt;
  return wrap_2pi(std::atan2(sy, sx));
}

bool WindowBuilder::add(const rfid::TagReport& r,
                        const PhaseCalibration* calibration,
                        std::vector<Window>& finished) {
  if (!(window_s_ > 0.0)) return false;  // no window length, no clock
  if (!t0_) t0_ = r.timestamp_s;
  const double w_f = (r.timestamp_s - *t0_) / window_s_;
  if (w_f - static_cast<double>(cur_window_) >
          static_cast<double>(rfid::kMaxWindows) ||
      w_f >= static_cast<double>(max_windows_)) {
    // A corrupt or jumped clock, or past the cap. Compared in double, so
    // the cast below cannot overflow.
    static const obs::Counter far_counter("preprocess.far_reports");
    far_counter.add(1);
    return false;
  }
  const int w = w_f < 0.0 ? -1 : static_cast<int>(w_f);
  if (w < cur_window_) {
    // Before window 0, or for a finished window: never reopened.
    static const obs::Counter late_counter("preprocess.late_reports");
    late_counter.add(1);
    return false;
  }
  // Finish the windows before the read's own; gap windows come out empty.
  while (cur_window_ < w) finished.push_back(finish());

  double phase = r.phase_rad;
  bool channel_covered = false;
  if (calibration != nullptr) {
    if (static_cast<std::size_t>(r.antenna_id) <
        calibration->port_offsets_rad.size()) {
      phase = wrap_2pi(phase - calibration->port_offsets_rad[r.antenna_id]);
    }
    if (r.channel >= 0 && static_cast<std::size_t>(r.channel) <
                              calibration->channel_offsets_rad.size()) {
      phase = wrap_2pi(phase - calibration->channel_offsets_rad[r.channel]);
      channel_covered = true;
    }
  }
  Antenna& ant = ant_[r.antenna_id];
  ant.rss.push_back(r.rss_dbm);
  ant.phase.push_back(phase);
  ant.channel.push_back(r.channel);
  if (!channel_covered) ant.uncalibrated += 1;
  return true;
}

void WindowBuilder::flush(std::vector<Window>& finished) {
  if (!ant_[0].rss.empty() || !ant_[1].rss.empty()) {
    finished.push_back(finish());
  }
}

Window WindowBuilder::finish() {
  Window win;
  win.index = cur_window_++;
  win.t_s = *t0_ + (static_cast<double>(win.index) + 0.5) * window_s_;
  for (int a = 0; a < 2; ++a) {
    Antenna& ant = ant_[a];
    if (!ant.rss.empty()) {
      double s = 0.0;
      for (double v : ant.rss) s += v;
      win.rss_dbm[a] = s / static_cast<double>(ant.rss.size());
      win.rss_valid[a] = true;
      win.read_count[a] = static_cast<int>(ant.rss.size());
    }
    if (const auto m = circular_mean(ant.phase)) {
      win.phase_rad[a] = *m;
      win.phase_valid[a] = true;
      // Majority channel of the window's reads (hopping diagnostics).
      win.channel[a] = ant.channel[ant.channel.size() / 2];
      // Cross-hop comparison is only safe when every phase read fed
      // through a calibrated channel (a single uncovered read would mix
      // an unremoved RF-chain offset into the circular mean).
      win.channel_calibrated[a] = ant.uncalibrated == 0;
    }
    ant.rss.clear();
    ant.phase.clear();
    ant.channel.clear();
    ant.uncalibrated = 0;
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
  // the builder's per-read bound cannot add up to more.
  WindowBuilder builder(cfg.window_s, rfid::kMaxWindows);
  for (const auto& r : reports) {
    if (!rfid::admit_report(r)) continue;
    if (r.antenna_id < 0 || r.antenna_id > 1) continue;
    builder.add(r, calibration, out);
  }
  builder.flush(out);

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
