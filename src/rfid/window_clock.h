// The window clock (paper section 3.1's 50 ms averaging): step 1 of
// PolarDraw's batch and per-pen pipelines (core/preprocess.h) and of the
// baselines' N-port windowing (baselines/windowing.h).
//
// One clock windows one time-ordered report stream over N antenna ports.
// It drops reports admit_report refuses and reads on ports outside
// [0, N), and subtracts the calibration's port and hop-channel offsets.
// Window 0 starts at the first placed read; a read for a later window
// first finishes every earlier one (gap windows come out empty). A read
// for a finished window or from before window 0 is dropped and counted in
// `preprocess.late_reports`; one more than kMaxWindows windows past the
// current window, or at the clock's cap or later, in
// `preprocess.far_reports`. A window keeps per port only running sums in
// read order, so its means equal those over stored reads bit for bit.
#pragma once

#include <concepts>
#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "rfid/tag_report.h"

namespace polardraw::rfid {

/// The report screen the clock applies first: false for a report whose
/// timestamp, RSS or phase is not finite, which is then counted under
/// `preprocess.nonfinite_reports` and dropped before it can set a window
/// origin, land in a window or refresh a pen's idle-close clock.
bool admit_report(const TagReport& r);

/// The furthest a report may land from its window clock, in windows: about
/// 1.8 hours of stream at the 50 ms default. A corrupt timestamp beyond it
/// would otherwise open that many empty windows.
inline constexpr std::size_t kMaxWindows = std::size_t{1} << 17;

/// Optional phase calibration, subtracted before windowing: per-port
/// RF-chain offsets (from a reference tag; the harness reads the reader's
/// known offsets) and per hop channel c its offset
/// (Reader::hop_channel_offset_rad), so phases compare across a hop between
/// covered channels; other channels stay uncalibrated and fence. The
/// position-dependent carrier term 4*pi*d*delta_f/c is not removed, so the
/// spurious-jump threshold still guards wide hops (DESIGN.md section 16).
struct PhaseCalibration {
  std::vector<double> port_offsets_rad;
  std::vector<double> channel_offsets_rad;
};

/// Circular mean, in [0, 2*pi), of `n` phases whose cosines and sines sum
/// to `sum_cos` and `sum_sin`. Nullopt for n = 0 and for a resultant at or
/// below 8*n*eps: each cos/sin term adds O(eps) rounding error, so such a
/// resultant is indistinguishable from exact cancellation.
std::optional<double> circular_mean(double sum_cos, double sum_sin, int n);

/// One port's reads in one window, as running sums in read order.
struct PortSums {
  int reads = 0;
  double rss_sum_dbm = 0.0;
  double cos_sum = 0.0;
  double sin_sum = 0.0;
  int uncalibrated = 0;  // reads on a hop channel the calibration lacks
  /// The channel of the longest same-channel run, the later run winning a
  /// tie: with one hop in the window, the middle read's channel.
  int channel = 0;
  int longest_run = 0;
  int run_channel = 0;  // the current run
  int run_length = 0;

  [[nodiscard]] double mean_rss_dbm() const {
    return rss_sum_dbm / static_cast<double>(reads);
  }
  [[nodiscard]] std::optional<double> mean_phase_rad() const {
    return circular_mean(cos_sum, sin_sum, reads);
  }
};

/// A finished window: its ordinal, its center time and its ports' sums.
struct ClockWindow {
  int index = 0;
  double t_s = 0.0;
  std::vector<PortSums> ports;
};

class WindowClock {
 public:
  /// The clock never opens window `max_windows` or later: a caller that
  /// holds every window at once passes kMaxWindows.
  WindowClock(int ports, double window_s,
              std::size_t max_windows = std::numeric_limits<std::size_t>::max());

  /// Places a read, first handing `finish` each window it finishes (valid
  /// during the call only). Returns false, placing nothing, for a dropped
  /// report or read, or when the window length is not positive.
  template <std::invocable<const ClockWindow&> Finish>
  bool add(const TagReport& r, const PhaseCalibration* calibration,
           Finish&& finish) {
    const std::optional<int> w = place(r);
    if (!w) return false;
    while (cur_.index < *w) finish(next());
    accumulate(r, calibration);
    return true;
  }

  /// Hands the current window to `finish` if it holds a read.
  template <std::invocable<const ClockWindow&> Finish>
  void flush(Finish&& finish) {
    if (placed_ > 0) finish(next());
  }

 private:
  /// The read's window ordinal; nullopt when the read is not placed.
  std::optional<int> place(const TagReport& r);
  void accumulate(const TagReport& r, const PhaseCalibration* calibration);
  /// Moves the clock to the next window; returns the one it finished.
  const ClockWindow& next();

  double window_s_;
  std::size_t max_windows_;
  std::optional<double> t0_;  // window 0's start
  ClockWindow cur_;           // the window being filled
  ClockWindow done_;          // the window `next` finished
  int placed_ = 0;            // reads placed in `cur_`
};

}  // namespace polardraw::rfid
