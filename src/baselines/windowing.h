// N-antenna windowing shared by the baseline trackers: PolarDraw's window
// clock (rfid/window_clock.h) at the rig's 2-8 ports, each port's phase
// unwrapped across windows without PolarDraw's spurious gate or hop fence,
// per-port phase deltas, and the link lengths the grid search tabulates.
#pragma once

#include <vector>

#include "common/vec.h"
#include "em/antenna.h"
#include "rfid/tag_report.h"
#include "rfid/window_clock.h"

namespace polardraw::baselines {

/// One window's phases, all a baseline tracker reads of it.
struct MultiWindow {
  double t_s = 0.0;
  std::vector<double> phase_rad;   // unwrapped, per port
  std::vector<bool> phase_valid;   // per port
};

/// Windows a time-ordered report stream through one rfid::WindowClock of
/// `num_ports` ports and `window_s` seconds, capped at rfid::kMaxWindows
/// windows, and unwraps each port's circular-mean phase across windows.
/// The optional calibration is subtracted before the mean.
std::vector<MultiWindow> window_reports(
    const rfid::TagReportStream& reports, int num_ports, double window_s,
    const rfid::PhaseCalibration* calibration = nullptr);

/// Per-port phase change of each window against the one before it, for
/// windows 1..n-1 ([step][port]); NaN unless both windows hold the port's
/// phase -- a delta across a read gap covers several moves and cannot be
/// scored against one transition.
std::vector<std::vector<double>> phase_deltas(
    const std::vector<MultiWindow>& windows);

/// Tag-to-antenna distance for a tag at board point `p` (the writing
/// plane is z = 0).
double link_length(const Vec2& p, const em::ReaderAntenna& antenna);

}  // namespace polardraw::baselines
