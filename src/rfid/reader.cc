#include "rfid/reader.h"

#include <cmath>

#include "common/angles.h"
#include "common/stats.h"
#include "em/propagation.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rfid/gen2.h"

namespace polardraw::rfid {

Reader::Reader(ReaderConfig config, std::vector<em::ReaderAntenna> antennas,
               channel::MultipathChannel channel, Rng rng)
    : config_(std::move(config)),
      antennas_(std::move(antennas)),
      channel_(std::move(channel)),
      rng_(rng),
      modulation_(config_.fixed_modulation) {
  // Stable per-port RF-chain offsets, drawn once at construction (they model
  // cable length and chain delay, which do not change during a session).
  port_phase_offsets_.reserve(antennas_.size());
  for (std::size_t i = 0; i < antennas_.size(); ++i) {
    port_phase_offsets_.push_back(rng_.uniform(0.0, kTwoPi));
  }
}

double Reader::hop_channel_offset_rad(int channel) {
  // A function of the channel index only (cable + chain group delay at
  // that carrier): stable across dwells, distinct between channels (the
  // multiplier is an irrational-ish angle, so no two of the 50 FCC
  // channels alias to the same offset).
  return wrap_2pi(static_cast<double>(channel) * 2.399963);
}

double Reader::quantize_phase(double phase_rad) const {
  const double steps = std::pow(2.0, config_.phase_quantization_bits);
  const double q = std::round(wrap_2pi(phase_rad) / kTwoPi * steps);
  return wrap_2pi(q / steps * kTwoPi);
}

std::optional<TagReport> Reader::interrogate(int antenna_id, const em::Tag& tag,
                                             double t_s) {
  const auto& antenna = antennas_.at(static_cast<std::size_t>(antenna_id));

  // FCC frequency hopping: a pseudo-random channel per dwell interval
  // shifts the carrier within 902-928 MHz and applies a stable per-channel
  // RF-chain phase offset.
  em::TxConfig tx;
  int hop_channel = 0;
  double channel_phase_offset = 0.0;
  if (config_.frequency_hopping && config_.hop_channels > 1) {
    const auto dwell = static_cast<std::uint64_t>(t_s / kHopDwellS);
    // Deterministic per-dwell channel from a hash of the dwell index.
    const std::uint64_t h =
        dwell * 6364136223846793005ull + 1442695040888963407ull;
    hop_channel = static_cast<int>(h % static_cast<std::uint64_t>(
                                           config_.hop_channels));
    tx.frequency_hz =
        902.75e6 + 0.5e6 * static_cast<double>(hop_channel);  // 500 kHz grid
    channel_phase_offset = hop_channel_offset_rad(hop_channel);
  }

  const channel::ChannelSample ch = channel_.evaluate(antenna, tag, tx, t_s);

  // Activation check: the chip needs enough harvested power to respond.
  if (ch.tag_power_dbm < tag.sensitivity_dbm) return std::nullopt;

  channel::NoiseConfig noise = config_.noise;
  noise.modulation_snr_gain = snr_gain(modulation_);
  const channel::NoisyObservation obs =
      channel::observe(ch.response, noise, rng_);

  // Decode failure at very low SNR: probability of a CRC pass falls off
  // steeply once the backscatter sideband nears the noise floor.
  const double decode_margin_db = obs.snr_db;  // sideband SNR
  if (decode_margin_db < 3.0) {
    const double p_fail = std::min(1.0, (3.0 - decode_margin_db) / 10.0);
    if (rng_.chance(p_fail)) return std::nullopt;
  }

  TagReport r;
  r.timestamp_s = t_s;
  r.antenna_id = antenna_id;
  r.epc = tag.sensitivity_dbm < 0 ? 0xAD227Bu : 0u;  // fixed demo EPC
  r.rss_dbm = obs.rss_dbm;
  r.channel = hop_channel;
  r.phase_rad = quantize_phase(
      obs.phase_rad + channel_phase_offset +
      port_phase_offsets_[static_cast<std::size_t>(antenna_id)]);
  return r;
}

Modulation Reader::select_modulation(const TagStateFn& tag_at) {
  if (!config_.auto_select_modulation) {
    modulation_ = config_.fixed_modulation;
    return modulation_;
  }
  // Round-robin schemes in rate order (fastest first), keep the first whose
  // phase variance over the probe reads meets the paper's threshold.
  constexpr int kProbeReads = 25;
  constexpr double kPhaseVarianceThresholdRad2 = 0.1;
  for (Modulation m : kAllModulations) {
    modulation_ = m;
    RunningStats stats;
    const em::Tag tag = tag_at(0.0);
    for (int i = 0; i < kProbeReads; ++i) {
      const double t = static_cast<double>(i) /
                       (config_.aggregate_read_rate_hz * rate_factor(m));
      if (auto rep = interrogate(0, tag, t)) {
        stats.push(angle_diff(rep->phase_rad, 0.0));
      }
    }
    if (stats.count() >= static_cast<std::size_t>(kProbeReads) / 2 &&
        stats.variance() <= kPhaseVarianceThresholdRad2) {
      return modulation_;
    }
  }
  // Nothing met the bar; fall back to the most robust scheme.
  modulation_ = Modulation::kMiller8;
  return modulation_;
}

namespace {
// Inventory instrumentation, shared by the single-tag and population paths.
const obs::SpanSite& inventory_span_site() {
  static const obs::SpanSite s("rfid.inventory");
  return s;
}
void count_inventory(std::size_t attempts, std::size_t delivered) {
  static const obs::Counter interrogations("rfid.interrogations");
  static const obs::Counter reports("rfid.reports");
  interrogations.add(attempts);
  reports.add(delivered);
}
}  // namespace

TagReportStream Reader::inventory_population(const std::vector<TagEntry>& tags,
                                              double t_begin, double t_end) {
  const obs::ScopedSpan span(inventory_span_site());
  static const obs::Counter rounds_counter("rfid.gen2.rounds");
  static const obs::Counter singles_counter("rfid.gen2.singletons");
  static const obs::Counter collisions_counter("rfid.gen2.collisions");
  static const obs::Counter empties_counter("rfid.gen2.empties");
  TagReportStream out;
  if (tags.empty() || t_end <= t_begin) return out;
  const double rate =
      config_.aggregate_read_rate_hz * rate_factor(modulation_);
  if (rate <= 0.0) return out;

  // Rescale the default Gen2 air timing so a lone, fully-adapted tag (one
  // slot per round, every slot a read) hits the configured aggregate rate:
  // the modulation keeps its rate semantics, and contention eats into that
  // budget through collisions and empties instead of dividing it evenly.
  Gen2Config g;
  const double base_s = g.slot_s + g.read_s;
  if (base_s <= 0.0) return out;
  const double scale = (1.0 / base_s) / rate;
  g.slot_s *= scale;
  g.read_s *= scale;

  out.reserve(static_cast<std::size_t>((t_end - t_begin) * rate) + 1);
  Gen2Inventory inventory(g, static_cast<std::uint64_t>(rng_.engine()()));

  int port = 0;
  std::size_t attempts = 0;
  std::uint64_t singles = 0, collisions = 0, empties = 0, rounds = 0;
  const int num_ports = static_cast<int>(antennas_.size());
  std::vector<std::size_t> present;
  double t = t_begin;
  while (t < t_end) {
    // The responding population at the round start: tags inside their
    // presence window. An empty zone idles one slot of air time.
    present.clear();
    for (std::size_t i = 0; i < tags.size(); ++i) {
      if (t >= tags[i].t_enter_s && t < tags[i].t_leave_s) present.push_back(i);
    }
    if (present.empty()) {
      t += g.slot_s;
      continue;
    }
    const Gen2Round round =
        inventory.run_round(static_cast<int>(present.size()));
    ++rounds;
    singles += static_cast<std::uint64_t>(round.singletons);
    collisions += static_cast<std::uint64_t>(round.collisions);
    empties += static_cast<std::uint64_t>(round.empties);
    for (std::size_t k = 0; k < round.read_tags.size(); ++k) {
      const double t_read = t + round.read_offsets_s[k];
      if (t_read >= t_end) break;
      const std::size_t tag_idx =
          present[static_cast<std::size_t>(round.read_tags[k])];
      const TagEntry& entry = tags[tag_idx];
      em::Tag tag = entry.state(t_read);
      ++attempts;
      if (auto rep = interrogate(port, tag, t_read)) {
        rep->epc = entry.epc;
        rep->serial = next_serial_++;
        obs::record_report_flow('s', rep->serial, obs::FlowStage::kSlot);
        out.push_back(*rep);
      }
      port = (port + 1) % num_ports;
    }
    t += round.duration_s;
  }
  rounds_counter.add(rounds);
  singles_counter.add(singles);
  collisions_counter.add(collisions);
  empties_counter.add(empties);
  count_inventory(attempts, out.size());
  return out;
}

TagReportStream Reader::inventory(const TagStateFn& tag_at, double t_begin,
                                  double t_end) {
  const obs::ScopedSpan span(inventory_span_site());
  TagReportStream out;
  const double rate =
      config_.aggregate_read_rate_hz * rate_factor(modulation_);
  if (rate <= 0.0 || t_end <= t_begin) return out;
  const double dt = 1.0 / rate;
  out.reserve(static_cast<std::size_t>((t_end - t_begin) / dt) + 1);

  int port = 0;
  std::size_t attempts = 0;
  const int num_ports = static_cast<int>(antennas_.size());
  for (double t = t_begin; t < t_end; t += dt) {
    // Small scheduling jitter: Gen2 slotted-ALOHA rounds are not metronomic.
    const double t_read = t + rng_.uniform(0.0, 0.2 * dt);
    const em::Tag tag = tag_at(t_read);
    ++attempts;
    if (auto rep = interrogate(port, tag, t_read)) {
      rep->serial = next_serial_++;
      obs::record_report_flow('s', rep->serial, obs::FlowStage::kReport);
      out.push_back(*rep);
    }
    port = (port + 1) % num_ports;
  }
  count_inventory(attempts, out.size());
  return out;
}

}  // namespace polardraw::rfid
