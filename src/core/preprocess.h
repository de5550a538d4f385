// RFID data pre-processing (paper section 3.1).
//
// Two steps, each a reusable piece shared by the batch pipeline
// (preprocess() below) and the per-pen multi-pen pipeline
// (core/association.h):
//  1. Window averaging (WindowBuilder): the window clock of one
//     time-ordered report stream. Raw per-read RSS/phase reports are
//     placed into fixed windows (50 ms default) per antenna; RSS is
//     averaged in dB and phase with a circular mean.
//  2. Spurious data rejection (PhaseGate): windows whose phase jumps from
//     the previous window by more than a threshold (0.2 rad in the paper)
//     are flagged invalid -- these are the cross-polarized "reflection
//     path" readings identified by the feasibility study (section 2).
//     Surviving phases are unwrapped into a continuous series.
//
// Reports with a non-finite timestamp, RSS or phase never reach either
// step (rfid::admit_report). The output is a time-aligned series of
// two-antenna windows; downstream trackers consume only this.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "common/angles.h"
#include "core/config.h"
#include "rfid/tag_report.h"

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
  /// RF channel the window's phase reads came from (majority); phase
  /// deltas across a channel change are not meaningful without
  /// per-channel calibration, so the unwrapper restarts on a hop.
  int channel[2] = {0, 0};
  /// True when every phase read in this window came from a channel the
  /// supplied PhaseCalibration covered (its RF-chain offset was removed
  /// at bucketing time). Two adjacent calibrated windows may compare
  /// phases across a hop; an uncalibrated boundary always fences.
  bool channel_calibrated[2] = {false, false};

  bool both_rss_valid() const { return rss_valid[0] && rss_valid[1]; }
  bool both_phase_valid() const { return phase_valid[0] && phase_valid[1]; }
};

/// Optional phase calibration: per-port offsets to subtract before
/// windowing (the reference-tag calibration real deployments perform; the
/// harness obtains it from the reader's known RF-chain offsets).
/// `channel_offsets_rad[c]` additionally removes hop channel c's RF-chain
/// offset (rfid::Reader::hop_channel_offset_rad) so that phase comparisons
/// may continue across a hop between covered channels; channels at or past
/// the vector's size stay uncalibrated and fence as before. The residual
/// cross-channel term from the carrier itself (4*pi*d*delta_f/c) is NOT
/// removed -- it is position-dependent -- so the spurious-jump threshold
/// still guards wide hops (DESIGN.md section 16).
struct PhaseCalibration {
  std::vector<double> port_offsets_rad;
  std::vector<double> channel_offsets_rad;
};

/// Step 1 for one stream: the window clock. Window 0 starts at the first
/// placed read; a read for a later window first finishes every earlier
/// one (gap windows come out empty), and a finished window is never
/// reopened. preprocess() runs one over the whole stream; the associator
/// runs one per pen.
class WindowBuilder {
 public:
  /// The clock never opens window `max_windows` or later. preprocess(),
  /// which holds every window at once, passes rfid::kMaxWindows; the
  /// associator finalizes each window as it goes and leaves it uncapped.
  explicit WindowBuilder(
      double window_s,
      std::size_t max_windows = std::numeric_limits<std::size_t>::max())
      : window_s_(window_s), max_windows_(max_windows) {}

  /// Places a read from antenna 0 or 1, appending the windows it finishes
  /// to `finished`. When `calibration` is given, its port offset and -- if
  /// it covers the read's hop channel -- its channel offset are subtracted
  /// from the phase. Returns false, placing nothing, when the window
  /// length is not positive; for a read more than rfid::kMaxWindows
  /// windows past the current window or at window `max_windows` or later
  /// (counted in `preprocess.far_reports`); or for an earlier window or
  /// from before window 0 (counted in `preprocess.late_reports`).
  bool add(const rfid::TagReport& r, const PhaseCalibration* calibration,
           std::vector<Window>& finished);

  /// Finishes the current window into `finished` if it holds a read.
  void flush(std::vector<Window>& finished);

 private:
  /// Finishes the current window: mean RSS, circular-mean phase, majority
  /// channel and calibration coverage per antenna. Clears the builder and
  /// advances the clock to the next window.
  Window finish();

  struct Antenna {
    std::vector<double> rss;
    std::vector<double> phase;
    std::vector<int> channel;
    // Phase reads whose channel the calibration did NOT cover; any such
    // read poisons the window for cross-hop comparison.
    int uncalibrated = 0;
  };
  double window_s_;
  std::size_t max_windows_;
  std::optional<double> t0_;  // window 0's start, set by the first read
  int cur_window_ = 0;        // ordinal of the window being filled
  Antenna ant_[2];
};

/// Step 2 for one stream of windows: per antenna, the hop fence, the
/// gap-scaled spurious-phase rejection and the unwrap, against the last
/// accepted window. Callers keep their own counters and logs off the
/// returned verdict.
class PhaseGate {
 public:
  explicit PhaseGate(double spurious_threshold_rad)
      : threshold_(spurious_threshold_rad) {}

  enum class Outcome {
    kNoPhase,      // the window had no phase on this antenna
    kAccepted,     // phase_rad now holds the unwrapped value
    kSpurious,     // jump beyond the gap-scaled threshold: phase dropped
    kNonMonotone,  // window time not after the reference: phase dropped
  };
  struct Verdict {
    Outcome outcome = Outcome::kNoPhase;
    /// Set when a hop across an uncalibrated channel boundary restarted
    /// the comparison at this window: the channel hopped away from.
    std::optional<int> fenced_from_channel;
  };

  /// Gates antenna `a` of `win` in place. Windows must come in ordinal
  /// order; a rejected phase leaves the reference where it was.
  Verdict gate(Window& win, int a);

 private:
  struct Reference {
    bool have = false;
    double wrapped = 0.0;
    int index = 0;
    int channel = 0;
    bool calibrated = false;
    PhaseUnwrapper unwrapper;
  };
  double threshold_;
  Reference ref_[2];
};

/// Runs both pre-processing steps over a raw, time-ordered report stream
/// (the reader's native order), through one WindowBuilder: a read that
/// arrives after its window was finished is dropped and counted, and the
/// output holds at most rfid::kMaxWindows windows. Reports from antennas
/// other than 0/1 are ignored (PolarDraw is a two-antenna system;
/// baselines have their own ingestion).
std::vector<Window> preprocess(const rfid::TagReportStream& reports,
                               const PolarDrawConfig& cfg,
                               const PhaseCalibration* calibration = nullptr);

/// Circular mean of phase samples (radians), in [0, 2*pi).
/// Returns nullopt for an empty set.
std::optional<double> circular_mean(const std::vector<double>& phases);

}  // namespace polardraw::core
