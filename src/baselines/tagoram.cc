#include "baselines/tagoram.h"

#include <cmath>

#include "baselines/windowing.h"
#include "common/angles.h"

namespace polardraw::baselines {

TagoramTracker::TagoramTracker(TagoramConfig cfg,
                               std::vector<em::ReaderAntenna> antennas)
    : cfg_(cfg), antennas_(std::move(antennas)) {}

std::vector<Vec2> TagoramTracker::track(
    const rfid::TagReportStream& reports) const {
  const int ports = static_cast<int>(antennas_.size());
  const auto windows =
      window_reports(reports, ports, cfg_.grid.window_s, nullptr);
  if (windows.size() < 2) return {};
  const std::vector<std::vector<double>> dtheta = phase_deltas(windows);

  // Start at the board center: with phase-only measurements the absolute
  // position is resolvable only up to hologram ambiguities, and the
  // evaluation metrics are translation-invariant.
  const Vec2 start{cfg_.grid.board_width_m / 2.0,
                   cfg_.grid.board_height_m / 2.0};

  const auto scorer = [&](std::size_t t, const Vec2& from,
                          const Vec2& to) -> double {
    double score = 0.0;
    int used = 0;
    for (std::size_t a = 0; a < dtheta[t].size(); ++a) {
      const double m = dtheta[t][a];
      if (std::isnan(m)) continue;
      const double expected = 4.0 * kPi *
                              (link_length(to, antennas_[a]) -
                               link_length(from, antennas_[a])) /
                              cfg_.wavelength_m;
      // Coherence of measured vs predicted phase change; differential, so
      // port offsets cancel.
      score += cfg_.coherence_weight * (std::cos(m - expected) - 1.0);
      ++used;
    }
    if (used == 0) return -0.1;  // mild penalty: drift only on blind steps
    return score;
  };

  return grid_beam_decode(cfg_.grid, start, dtheta.size(), scorer);
}

}  // namespace polardraw::baselines
