// EPC Gen2 reader simulation.
//
// Models the parts of an ImpinJ Speedway-class reader that matter for
// PolarDraw:
//   * an inventory scheduler that round-robins antenna ports and produces
//     ~100 reads/s aggregate (the paper's observed rate);
//   * per-read RSS and phase measurements derived from the multipath
//     channel plus receiver noise;
//   * phase quantization (the Speedway reports phase in 1/4096 turns) and a
//     stable per-port phase offset (cable lengths, RF chains);
//   * tag activation: reads fail when the forward power at the chip is
//     below sensitivity -- deep polarization mismatch silences the tag;
//   * modulation auto-selection per the paper's section 4: round-robin the
//     schemes and keep the first whose phase variance is <= 0.1 rad^2.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "channel/multipath.h"
#include "channel/noise.h"
#include "common/rng.h"
#include "em/antenna.h"
#include "em/tag.h"
#include "rfid/modulation.h"
#include "rfid/tag_report.h"

namespace polardraw::rfid {

/// FCC hop dwell, seconds: readers in the 902-928 MHz band must hop among
/// 50 channels with at most 0.4 s on each.
inline constexpr double kHopDwellS = 0.4;

struct ReaderConfig {
  channel::NoiseConfig noise;

  /// Aggregate interrogation rate across all antenna ports, Hz.
  double aggregate_read_rate_hz = 100.0;

  /// Phase reporting resolution in bits (Speedway: 12 -> 4096 steps/turn).
  int phase_quantization_bits = 12;

  /// If true, run the paper's modulation auto-selection before streaming;
  /// otherwise use `fixed_modulation`.
  bool auto_select_modulation = true;
  Modulation fixed_modulation = Modulation::kMiller4;

  /// FCC frequency hopping among `hop_channels` channels, kHopDwellS on
  /// each. Hopping changes the wavelength slightly and, more importantly,
  /// the per-channel RF-chain phase offset -- phase comparisons across a
  /// hop boundary are meaningless without per-channel calibration. Off by
  /// default (the paper operates single-channel); bench/tests exercise it.
  bool frequency_hopping = false;
  int hop_channels = 50;
};

/// Callback that positions/orients the tag at a given simulation time.
/// The simulator supplies this from the handwriting synthesizer.
using TagStateFn = std::function<em::Tag(double t_s)>;

/// A tag population entry for multi-tag inventory (the paper's section 7
/// multi-user extension): an EPC identity plus its state function.
/// `t_enter_s`/`t_leave_s` bound the tag's presence in the interrogation
/// zone -- outside them it neither responds nor contends for slots, so
/// pens can arrive and leave mid-run and the Q adaptation re-converges to
/// the live population.
struct TagEntry {
  std::uint32_t epc = 0;
  TagStateFn state;
  double t_enter_s = 0.0;
  double t_leave_s = 1e300;
};

class Reader {
 public:
  Reader(ReaderConfig config, std::vector<em::ReaderAntenna> antennas,
         channel::MultipathChannel channel, Rng rng);

  /// Runs the paper's modulation-selection loop against a static tag pose
  /// (the tag at t = 0). Returns the selected scheme; also applies it.
  Modulation select_modulation(const TagStateFn& tag_at);

  /// Interrogates the tag from `t_begin` to `t_end`, producing the report
  /// stream. Ports are serviced round-robin; reads that fail activation
  /// are dropped (producing gaps, as real readers do).
  TagReportStream inventory(const TagStateFn& tag_at, double t_begin,
                            double t_end);

  /// Multi-tag inventory (section 7, "Extending to multi-user case"),
  /// MAC-arbitrated at slot level: the population runs through
  /// `Gen2Inventory` rounds, so collisions burn air time without yielding
  /// reads, per-tag read rates emerge from the Q adaptation rather than a
  /// fixed budget split, and tags outside their presence window drop out
  /// of the contention entirely. Each report carries its tag's EPC for
  /// de-multiplexing. Deterministic: slot draws are counter-based
  /// (splitmix64 of a per-call seed, round and tag index).
  TagReportStream inventory_population(const std::vector<TagEntry>& tags,
                                       double t_begin, double t_end);

  /// Single interrogation attempt on one antenna port at time t.
  /// Returns nullopt when the tag fails to activate or decode fails.
  std::optional<TagReport> interrogate(int antenna_id, const em::Tag& tag,
                                       double t_s);

  const std::vector<em::ReaderAntenna>& antennas() const { return antennas_; }
  const ReaderConfig& config() const { return config_; }
  Modulation active_modulation() const { return modulation_; }
  channel::MultipathChannel& channel() { return channel_; }
  const channel::MultipathChannel& channel() const { return channel_; }

  /// Per-port RF-chain phase offsets (radians). Exposed for tests; real
  /// deployments calibrate these out, and the tracking algorithms only use
  /// phase *differences* in time, so a constant offset is harmless.
  const std::vector<double>& port_phase_offsets() const {
    return port_phase_offsets_;
  }

  /// Stable RF-chain phase offset of a hop channel (radians): the same
  /// channel always gets the same offset, in any dwell, so per-channel
  /// calibration (PhaseCalibration::channel_offsets_rad) can subtract
  /// it and phase comparisons may continue across a calibrated hop.
  static double hop_channel_offset_rad(int channel);

 private:
  double quantize_phase(double phase_rad) const;

  ReaderConfig config_;
  std::vector<em::ReaderAntenna> antennas_;
  channel::MultipathChannel channel_;
  Rng rng_;
  Modulation modulation_;
  std::vector<double> port_phase_offsets_;
  /// Next TagReport::serial; counts delivered reports across all
  /// inventory calls on this reader (1-based, observational only).
  std::uint64_t next_serial_ = 1;
};

}  // namespace polardraw::rfid
