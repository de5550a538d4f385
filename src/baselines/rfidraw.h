// RF-IDraw baseline (Wang et al., SIGCOMM 2014) -- angle-of-arrival
// intersection tracking, reimplemented from the published description.
//
// RF-IDraw places antenna pairs with unequal spacings: a widely-spaced
// ("coarse") pair gives a precise but ambiguous angle-of-arrival (many
// grating lobes), while a closely-spaced ("fine") pair gives an unambiguous
// but blunt one. The fine pair selects among the coarse pair's hypotheses,
// and two such arrays intersect their bearing hyperbolas to localize the
// tag. The paper compares against a 4-antenna build (two 2-element arrays),
// noting its accuracy is below the published 8-antenna system; we model
// that same 4-antenna build. Inter-antenna (spatial) phase comparisons need
// per-port calibration, which the constructor takes -- real deployments
// obtain it with a reference tag.
#pragma once

#include <vector>

#include "baselines/grid_search.h"
#include "common/vec.h"
#include "em/antenna.h"
#include "rfid/tag_report.h"
#include "rfid/window_clock.h"

namespace polardraw::baselines {

struct RfIdrawConfig {
  GridConfig grid;
  double wavelength_m = 0.3276;
  /// Sharpness of the per-pair hyperbola coherence term. Kept moderate:
  /// the widely-spaced pairs have grating lobes, and over-weighting them
  /// lets a wrong lobe capture the track.
  double coherence_weight = 0.5;
  /// Weight of the temporal (per-port differential) term that stabilizes
  /// tracking between AoA updates.
  double temporal_weight = 2.0;
};

class RfIdrawTracker {
 public:
  /// `pairs` lists antenna index pairs forming the arrays, e.g.
  /// {{0,1},{2,3}} for two 2-element arrays.
  RfIdrawTracker(RfIdrawConfig cfg, std::vector<em::ReaderAntenna> antennas,
                 std::vector<std::pair<int, int>> pairs,
                 std::vector<double> port_phase_offsets);

  std::vector<Vec2> track(const rfid::TagReportStream& reports) const;

  const RfIdrawConfig& config() const { return cfg_; }

 private:
  RfIdrawConfig cfg_;
  std::vector<em::ReaderAntenna> antennas_;
  std::vector<std::pair<int, int>> pairs_;
  rfid::PhaseCalibration calibration_;  // port offsets only
};

}  // namespace polardraw::baselines
