// Tagoram baseline (Yang et al., MobiCom 2014) -- differential augmented
// hologram (DAH) tracking, reimplemented from the published description.
//
// Tagoram localizes a moving tag by treating the board as a hologram: each
// candidate position predicts a phase at every antenna; the likelihood of
// a position is how coherently the measured phases agree with the
// predictions. The *differential* form scores position pairs using phase
// changes between consecutive windows, which cancels per-port phase
// offsets and the tag's unknown reflection phase. We decode the most
// likely block sequence with baselines::grid_beam_decode, the grid Viterbi
// search it shares with RF-IDraw, which scores moves from per-cell phase
// tables (the hologram) and prunes with PolarDraw's own beam prune. Its
// one GridConfig comes from the eval harness with PolarDraw's board grid,
// window length, speed limit, beam width and wavelength, so the comparison
// mostly isolates the measurement model (4 circular antennas, phase only);
// the coherence weight is a constant of the method.
#pragma once

#include <vector>

#include "baselines/grid_search.h"
#include "common/vec.h"
#include "em/antenna.h"
#include "rfid/tag_report.h"

namespace polardraw::baselines {

class TagoramTracker {
 public:
  TagoramTracker(GridConfig cfg, std::vector<em::ReaderAntenna> antennas);

  /// Recovers the trajectory from a raw report stream.
  std::vector<Vec2> track(const rfid::TagReportStream& reports) const;

 private:
  GridConfig cfg_;
  std::vector<em::ReaderAntenna> antennas_;
};

}  // namespace polardraw::baselines
