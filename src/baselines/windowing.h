// N-antenna window aggregation shared by the baseline trackers.
//
// Unlike PolarDraw's two-antenna preprocessing (core/preprocess.h), the
// baselines run with 2-8 antenna ports, so this module aggregates reports
// into fixed windows for an arbitrary port count and unwraps each port's
// phase across windows. It also holds the two measurement-model pieces
// both trackers score with: per-port phase deltas and link lengths.
#pragma once

#include <vector>

#include "common/vec.h"
#include "em/antenna.h"
#include "rfid/tag_report.h"

namespace polardraw::baselines {

struct MultiWindow {
  double t_s = 0.0;
  std::vector<double> phase_rad;   // unwrapped, per port
  std::vector<double> rss_dbm;     // per port
  std::vector<bool> phase_valid;   // per port
  std::vector<bool> rss_valid;     // per port

  bool all_phase_valid() const {
    for (bool v : phase_valid)
      if (!v) return false;
    return !phase_valid.empty();
  }
};

/// Aggregates a report stream into windows of `window_s` seconds across
/// `num_ports` antenna ports. Optional per-port phase offsets (calibration)
/// are subtracted before unwrapping. Reports rfid::admit_report refuses
/// are skipped; window 0 starts at the first admitted report, and a
/// report outside [0, rfid::kMaxWindows) windows of it is dropped and
/// counted under `preprocess.far_reports`.
std::vector<MultiWindow> window_reports(
    const rfid::TagReportStream& reports, int num_ports, double window_s,
    const std::vector<double>* port_offsets = nullptr);

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
