#include "baselines/rfidraw.h"

#include <cmath>
#include <limits>

#include "baselines/windowing.h"
#include "common/angles.h"

namespace polardraw::baselines {

RfIdrawTracker::RfIdrawTracker(RfIdrawConfig cfg,
                               std::vector<em::ReaderAntenna> antennas,
                               std::vector<std::pair<int, int>> pairs,
                               std::vector<double> port_phase_offsets)
    : cfg_(cfg),
      antennas_(std::move(antennas)),
      pairs_(std::move(pairs)),
      offsets_(std::move(port_phase_offsets)) {}

std::vector<Vec2> RfIdrawTracker::track(
    const rfid::TagReportStream& reports) const {
  const int ports = static_cast<int>(antennas_.size());
  const auto windows =
      window_reports(reports, ports, cfg_.grid.window_s, &offsets_);
  if (windows.size() < 2) return {};

  const auto link_len = [this](const Vec2& p, int a) {
    return link_length(p, antennas_[static_cast<std::size_t>(a)]);
  };

  // Per-step observations: spatial pair differences (calibrated, wrapped;
  // [step][pair], NaN if unavailable) and per-port temporal deltas.
  std::vector<std::vector<double>> pair_diff;
  for (std::size_t w = 1; w < windows.size(); ++w) {
    std::vector<double>& d = pair_diff.emplace_back(
        pairs_.size(), std::numeric_limits<double>::quiet_NaN());
    for (std::size_t pi = 0; pi < pairs_.size(); ++pi) {
      const auto ii = static_cast<std::size_t>(pairs_[pi].first);
      const auto jj = static_cast<std::size_t>(pairs_[pi].second);
      if (windows[w].phase_valid[ii] && windows[w].phase_valid[jj]) {
        d[pi] = windows[w].phase_rad[jj] - windows[w].phase_rad[ii];
      }
    }
  }
  const std::vector<std::vector<double>> dtheta = phase_deltas(windows);

  // Initial fix: grid argmax of the spatial (AoA) coherence on the first
  // window with all pairs observed -- RF-IDraw localizes before tracking.
  Vec2 start{cfg_.grid.board_width_m / 2.0, cfg_.grid.board_height_m / 2.0};
  for (const MultiWindow& w : windows) {
    bool pairs_ok = true;
    for (const auto& [i, j] : pairs_) {
      if (!w.phase_valid[static_cast<std::size_t>(i)] ||
          !w.phase_valid[static_cast<std::size_t>(j)]) {
        pairs_ok = false;
        break;
      }
    }
    if (!pairs_ok) continue;
    double best = -1e18;
    const double step = cfg_.grid.block_m * 2.0;  // coarse scan suffices
    for (double y = step / 2.0; y < cfg_.grid.board_height_m; y += step) {
      for (double x = step / 2.0; x < cfg_.grid.board_width_m; x += step) {
        const Vec2 p{x, y};
        double s = 0.0;
        for (const auto& [i, j] : pairs_) {
          const double meas = w.phase_rad[static_cast<std::size_t>(j)] -
                              w.phase_rad[static_cast<std::size_t>(i)];
          const double expected =
              4.0 * kPi * (link_len(p, j) - link_len(p, i)) / cfg_.wavelength_m;
          s += std::cos(meas - expected);
        }
        if (s > best) {
          best = s;
          start = p;
        }
      }
    }
    break;
  }

  const auto scorer = [&](std::size_t t, const Vec2& from,
                          const Vec2& to) -> double {
    double score = 0.0;
    int used = 0;
    // AoA / hyperbola term: the candidate must lie where each array's
    // spatial phase difference matches. The cosine handles the 2k*pi
    // ambiguity exactly the way grating lobes do; the fine/coarse pairing
    // plus temporal continuity selects among lobes.
    for (std::size_t pi = 0; pi < pair_diff[t].size(); ++pi) {
      const double m = pair_diff[t][pi];
      if (std::isnan(m)) continue;
      const auto [i, j] = pairs_[pi];
      const double expected =
          4.0 * kPi * (link_len(to, j) - link_len(to, i)) / cfg_.wavelength_m;
      score += cfg_.coherence_weight * (std::cos(m - expected) - 1.0);
      ++used;
    }
    // Temporal stabilizer: per-port differential coherence (as in any
    // phase tracker; RF-IDraw's virtual-touch-screen demo also tracks
    // continuously rather than re-localizing from scratch).
    for (std::size_t a = 0; a < dtheta[t].size(); ++a) {
      const double m = dtheta[t][a];
      if (std::isnan(m)) continue;
      const double expected =
          4.0 * kPi *
          (link_len(to, static_cast<int>(a)) -
           link_len(from, static_cast<int>(a))) /
          cfg_.wavelength_m;
      score += cfg_.temporal_weight * (std::cos(m - expected) - 1.0);
      ++used;
    }
    if (used == 0) return -0.1;
    return score;
  };

  return grid_beam_decode(cfg_.grid, start, dtheta.size(), scorer);
}

}  // namespace polardraw::baselines
