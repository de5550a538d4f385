// LLRP-style tag report: the tuple a Gen2 reader delivers per successful
// tag read. This is the *only* interface between the physical substrate
// and the tracking algorithms -- exactly as the paper's Java LLRP collector
// hands (timestamp, antenna, RSS, phase) tuples to the C# tracker.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace polardraw::rfid {

struct TagReport {
  double timestamp_s = 0.0;   // reader clock
  int antenna_id = 0;         // 0-based antenna port index
  std::uint32_t epc = 0;      // tag identity (EPC suffix)
  double rss_dbm = -150.0;    // received signal strength
  double phase_rad = 0.0;     // backscatter phase, [0, 2*pi)
  double read_rate_hz = 0.0;  // diagnostic: current per-antenna rate
  int channel = 0;            // RF channel index (frequency hopping)
  /// Reader-assigned delivery serial, 1-based in delivery order across
  /// the whole inventory (0 = unassigned). Purely observational: the
  /// causal flow tracer (DESIGN.md section 17) samples chains by serial;
  /// no tracking algorithm may read it.
  std::uint64_t serial = 0;
};

using TagReportStream = std::vector<TagReport>;

/// The report screen every windowing pipeline applies first: false for a
/// report whose timestamp, RSS or phase is not finite, which is then
/// counted under `preprocess.nonfinite_reports` and dropped before it can
/// set a window origin, land in a window or refresh a pen's idle-close
/// clock. The output therefore equals that of the same stream without it.
bool admit_report(const TagReport& r);

/// The furthest a report may land from its window clock, in windows: about
/// 1.8 hours of stream at the 50 ms default. A corrupt timestamp beyond it
/// would otherwise open that many empty windows, so such reports are
/// dropped and counted under `preprocess.far_reports`.
inline constexpr std::size_t kMaxWindows = std::size_t{1} << 17;

}  // namespace polardraw::rfid
