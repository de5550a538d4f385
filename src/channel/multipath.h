// Multipath backscatter channel.
//
// Combines the line-of-sight backscatter path with single-bounce reflected
// paths (reader -> scatterer -> tag -> reader and the reciprocal), producing
// the complex baseband response each reader antenna observes. This is the
// mechanism behind the paper's two key empirical observations:
//
//  * When the tag is roughly co-polarized with the antenna, the LOS path
//    dominates and phase tracks 4*pi*d/lambda.
//  * When the tag is cross-polarized (mismatch near 90 degrees), the LOS
//    term collapses (cos^2 -> 0) but depolarized reflections survive, so
//    the reader still occasionally decodes the tag -- with a phase set by
//    the reflection geometry, i.e. the "spurious" readings of section 2.
#pragma once

#include <complex>
#include <vector>

#include "channel/scatterer.h"
#include "em/antenna.h"
#include "em/propagation.h"
#include "em/tag.h"

namespace polardraw::channel {

/// Full channel response for one antenna at one instant.
struct ChannelSample {
  /// Sum of LOS + reflected complex path responses (sqrt(mW) amplitude).
  std::complex<double> response{0.0, 0.0};

  /// Total power delivered to the tag chip (all forward paths), dBm.
  double tag_power_dbm = -150.0;

  /// LOS-only part of `response` (a diagnostic copy read by tests).
  std::complex<double> los_response{0.0, 0.0};
};

/// The propagation environment: a set of scatterers shared by all antennas.
class MultipathChannel {
 public:
  MultipathChannel() = default;
  explicit MultipathChannel(std::vector<Scatterer> scatterers)
      : scatterers_(std::move(scatterers)) {}

  void add(Scatterer s) { scatterers_.push_back(std::move(s)); }
  const std::vector<Scatterer>& scatterers() const { return scatterers_; }
  void clear() { scatterers_.clear(); }

  /// Evaluates the channel between `antenna` and `tag` at simulation time
  /// `t_s` (time matters for walking scatterers).
  ChannelSample evaluate(const em::ReaderAntenna& antenna, const em::Tag& tag,
                         const em::TxConfig& tx, double t_s) const;

 private:
  std::vector<Scatterer> scatterers_;
};

/// A typical cluttered-office environment: a handful of weak static
/// reflectors, per the paper's experimental setting.
MultipathChannel make_office_channel(int clutter_count = 4);

}  // namespace polardraw::channel
