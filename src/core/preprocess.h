// RFID data pre-processing (paper section 3.1), shared by the batch
// pipeline (preprocess() below) and the per-pen multi-pen pipeline
// (core/association.h):
//  1. Window averaging: a two-port rfid::WindowClock (rfid/window_clock.h,
//     the clock the baselines share); to_window() turns each window it
//     finishes into a Window of mean RSS (dB) and circular-mean phase.
//  2. Spurious data rejection (PhaseGate): a window whose phase jumps from
//     the previous one by more than a threshold (0.2 rad in the paper) is
//     flagged invalid -- the cross-polarized "reflection path" readings of
//     the feasibility study (section 2). Surviving phases are unwrapped,
//     and a window where a channel hop fences the comparison is marked.
// The output is a time-aligned series of two-antenna windows; downstream
// trackers consume only this.
#pragma once

#include <optional>
#include <vector>

#include "common/angles.h"
#include "core/config.h"
#include "rfid/tag_report.h"
#include "rfid/window_clock.h"

namespace polardraw::core {

/// One pre-processed 50 ms window, aligned across both antennas.
struct Window {
  double t_s = 0.0;   // window center time
  int index = 0;      // window ordinal

  // Per-antenna aggregates (index 0/1 = antenna port).
  double rss_dbm[2] = {-150.0, -150.0};
  double phase_rad[2] = {0.0, 0.0};    // unwrapped across valid windows
  int read_count[2] = {0, 0};

  bool rss_valid[2] = {false, false};
  bool phase_valid[2] = {false, false};
  /// RF channel of the window's longest same-channel run of reads (the
  /// later run wins a tie); phase deltas across a channel change are not
  /// meaningful without per-channel calibration, so PhaseGate fences a hop.
  int channel[2] = {0, 0};
  /// True when every phase read in this window came from a channel the
  /// supplied PhaseCalibration covered (its RF-chain offset was removed
  /// at bucketing time). Two adjacent calibrated windows may compare
  /// phases across a hop; an uncalibrated boundary always fences.
  bool channel_calibrated[2] = {false, false};
  /// Set by PhaseGate when a hop across an uncalibrated channel boundary
  /// restarted the comparison at this window: the phase stays valid, but
  /// its delta to the window before is not motion.
  bool hop_fenced[2] = {false, false};

  bool both_rss_valid() const { return rss_valid[0] && rss_valid[1]; }
  bool both_phase_valid() const { return phase_valid[0] && phase_valid[1]; }
};

/// The pipelines' callers spell it core::PhaseCalibration.
using rfid::PhaseCalibration;

/// The Window of a two-port window the clock finished: mean RSS,
/// circular-mean phase, channel and calibration coverage per antenna.
Window to_window(const rfid::ClockWindow& finished);

/// Step 2 for one stream of windows: per antenna, the hop fence, the
/// gap-scaled spurious-phase rejection and the unwrap, against the last
/// accepted window. The gate alone decides the fence and marks the window
/// it fences (Window::hop_fenced), and it counts each rejected phase in
/// `preprocess.phase_rejected`, registered when a gate is built.
class PhaseGate {
 public:
  explicit PhaseGate(double spurious_threshold_rad);

  /// Gates antenna `a` of `win` in place: a phase that jumps beyond the
  /// gap-scaled threshold is dropped and leaves the reference where it
  /// was; an accepted one is unwrapped. Windows come from one WindowClock,
  /// which finishes them in increasing ordinal and drops late reads, so
  /// the gate needs no time-order check of its own. Returns the channel a
  /// hop fence restarted the comparison from, when it fenced this window.
  std::optional<int> gate(Window& win, int a);

 private:
  /// The last accepted window; the unwrapper holds its wrapped phase.
  struct Reference {
    int index = 0;
    int channel = 0;
    bool calibrated = false;
    PhaseUnwrapper unwrapper;
  };
  double threshold_;
  Reference ref_[2];
};

/// Runs both pre-processing steps over a raw, time-ordered report stream
/// (the reader's native order) in one pass: one two-port WindowClock
/// capped at rfid::kMaxWindows windows, whose callback gates each window
/// it finishes. A read that arrives after its window was finished is
/// dropped and counted. Reports from antennas other than 0/1 are ignored
/// (PolarDraw is a two-antenna system).
std::vector<Window> preprocess(const rfid::TagReportStream& reports,
                               const PolarDrawConfig& cfg,
                               const PhaseCalibration* calibration = nullptr);

}  // namespace polardraw::core
