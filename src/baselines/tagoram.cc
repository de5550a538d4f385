#include "baselines/tagoram.h"

#include "baselines/windowing.h"

namespace polardraw::baselines {

namespace {
/// Sharpness of the per-antenna coherence term.
constexpr double kCoherenceWeight = 2.0;
}  // namespace

TagoramTracker::TagoramTracker(GridConfig cfg,
                               std::vector<em::ReaderAntenna> antennas)
    : cfg_(cfg), antennas_(std::move(antennas)) {}

std::vector<Vec2> TagoramTracker::track(
    const rfid::TagReportStream& reports) const {
  const int ports = static_cast<int>(antennas_.size());
  const auto windows = window_reports(reports, ports, cfg_.window_s, nullptr);
  if (windows.size() < 2) return {};

  // Start at the board center: with phase-only measurements the absolute
  // position is resolvable only up to hologram ambiguities, and the
  // evaluation metrics are translation-invariant.
  const Vec2 start{cfg_.board_width_m / 2.0, cfg_.board_height_m / 2.0};

  // Differential phase coherence: port offsets cancel.
  return grid_beam_decode(cfg_, start, antennas_,
                          {.port_deltas = phase_deltas(windows),
                           .port_weight = kCoherenceWeight});
}

}  // namespace polardraw::baselines
