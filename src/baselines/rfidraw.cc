#include "baselines/rfidraw.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "baselines/windowing.h"
#include "common/angles.h"

namespace polardraw::baselines {

namespace {
/// Sharpness of the per-pair hyperbola coherence term. Kept moderate: the
/// widely-spaced pairs have grating lobes, and over-weighting them lets a
/// wrong lobe capture the track.
constexpr double kCoherenceWeight = 0.5;
/// Weight of the temporal (per-port differential) term that stabilizes
/// tracking between AoA updates.
constexpr double kTemporalWeight = 2.0;
}  // namespace

RfIdrawTracker::RfIdrawTracker(GridConfig cfg,
                               std::vector<em::ReaderAntenna> antennas,
                               std::vector<std::pair<int, int>> pairs,
                               std::vector<double> port_phase_offsets)
    : cfg_(cfg),
      antennas_(std::move(antennas)),
      pairs_(std::move(pairs)),
      calibration_{std::move(port_phase_offsets), {}} {}

std::vector<Vec2> RfIdrawTracker::track(
    const rfid::TagReportStream& reports) const {
  const int ports = static_cast<int>(antennas_.size());
  const auto windows =
      window_reports(reports, ports, cfg_.window_s, &calibration_);
  if (windows.size() < 2) return {};

  // Calibrated pair differences, [window][pair], NaN unless both are read.
  std::vector<std::vector<double>> diffs;
  for (const MultiWindow& w : windows) {
    std::vector<double>& d = diffs.emplace_back(
        pairs_.size(), std::numeric_limits<double>::quiet_NaN());
    for (std::size_t q = 0; q < pairs_.size(); ++q) {
      const auto i = static_cast<std::size_t>(pairs_[q].first);
      const auto j = static_cast<std::size_t>(pairs_[q].second);
      if (w.phase_valid[i] && w.phase_valid[j]) {
        d[q] = w.phase_rad[j] - w.phase_rad[i];
      }
    }
  }

  // Initial fix: grid argmax of the spatial (AoA) coherence on the first
  // window with all pairs observed -- RF-IDraw localizes before tracking.
  // The scan samples block corners, off the decode's per-cell tables.
  Vec2 start{cfg_.board_width_m / 2.0, cfg_.board_height_m / 2.0};
  const auto fix = std::find_if(diffs.begin(), diffs.end(), [](const auto& d) {
    return std::none_of(d.begin(), d.end(),
                        [](double m) { return std::isnan(m); });
  });
  const auto link_len = [this](const Vec2& p, int a) {
    return link_length(p, antennas_[static_cast<std::size_t>(a)]);
  };
  const double step = cfg_.block_m * 2.0;  // coarse scan suffices
  double best = -1e18;
  for (double y = step / 2.0; fix != diffs.end() && y < cfg_.board_height_m;
       y += step) {
    for (double x = step / 2.0; x < cfg_.board_width_m; x += step) {
      double s = 0.0;
      for (std::size_t q = 0; q < pairs_.size(); ++q) {
        const auto [i, j] = pairs_[q];
        const double expected = 4.0 * kPi *
                                (link_len({x, y}, j) - link_len({x, y}, i)) /
                                cfg_.wavelength_m;
        s += std::cos((*fix)[q] - expected);
      }
      if (s > best) {
        best = s;
        start = {x, y};
      }
    }
  }

  // AoA term (the cosine handles the 2k*pi ambiguity as grating lobes do),
  // plus a per-port temporal term that tracks between AoA updates.
  return grid_beam_decode(
      cfg_, start, antennas_,
      {.port_deltas = phase_deltas(windows), .port_weight = kTemporalWeight,
       .pairs = pairs_, .pair_diffs = {diffs.begin() + 1, diffs.end()},
       .pair_weight = kCoherenceWeight});
}

}  // namespace polardraw::baselines
