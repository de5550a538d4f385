// LLRP-style tag report: the tuple a Gen2 reader delivers per successful
// tag read. This is the *only* interface between the physical substrate
// and the tracking algorithms -- exactly as the paper's Java LLRP collector
// hands (timestamp, antenna, RSS, phase) tuples to the C# tracker.
#pragma once

#include <cstdint>
#include <vector>

namespace polardraw::rfid {

struct TagReport {
  double timestamp_s = 0.0;   // reader clock
  int antenna_id = 0;         // 0-based antenna port index
  std::uint32_t epc = 0;      // tag identity (EPC suffix)
  double rss_dbm = -150.0;    // received signal strength
  double phase_rad = 0.0;     // backscatter phase, [0, 2*pi)
  int channel = 0;            // RF channel index (frequency hopping)
  /// Reader-assigned delivery serial, 1-based in delivery order across
  /// the whole inventory (0 = unassigned). Purely observational: the
  /// causal flow tracer (DESIGN.md section 17) samples chains by serial;
  /// no tracking algorithm may read it.
  std::uint64_t serial = 0;
};

using TagReportStream = std::vector<TagReport>;

}  // namespace polardraw::rfid
