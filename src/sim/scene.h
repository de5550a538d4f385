// Scene assembly: whiteboard geometry, antenna rig, channel and reader,
// wired to a handwriting trace. This is the experiment harness' single
// entry point for producing the RFID report stream PolarDraw consumes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "channel/multipath.h"
#include "common/rng.h"
#include "em/antenna.h"
#include "handwriting/synthesizer.h"
#include "rfid/reader.h"
#include "rfid/tag_report.h"

namespace polardraw::sim {

/// Antenna rig layouts used across the paper's experiments.
enum class RigLayout {
  kPolarDrawTwoAntenna,   // 2 linear antennas at +/- gamma (paper Fig. 4)
  kTagoramFourAntenna,    // 4 circular antennas around the writing block
  kTagoramTwoAntenna,     // Tagoram limited to 2 antennas (equal hardware)
  kRfIdrawFourAntenna,    // 2 x 2 non-uniform AoA arrays (Fig. 17)
};

struct SceneConfig {
  /// Board writing area, meters (the paper's plots span ~1.0 x 0.6 m).
  double board_width_m = 1.0;
  double board_height_m = 0.6;

  /// Tag-to-reader distance, meters (the knob of Table 5 / Fig. 22). In
  /// the two-antenna rigs it is the in-plane distance from the
  /// writing-block center up to the antenna line, and the mounts sit
  /// 0.12 m out of the board plane: that height, antennas()[i].position.z,
  /// is the trackers' `antenna_z`. The four-antenna baseline rigs stand
  /// this far off the board plane, facing it.
  double antenna_standoff_m = 1.0;

  /// Inter-antenna polarization half-angle gamma (radians; Table 8 knob).
  double gamma_rad = 0.2617993877991494;  // 15 deg, the paper's default

  /// Horizontal spacing between the two PolarDraw antennas, meters.
  double antenna_spacing_m = 0.565;  // 56 cm, per Fig. 17's rig

  RigLayout layout = RigLayout::kPolarDrawTwoAntenna;

  rfid::ReaderConfig reader;

  /// Office clutter scatterer count (0 = anechoic).
  int clutter_count = 5;

  std::uint64_t seed = 1;
};

/// A ready-to-run scene.
class Scene {
 public:
  explicit Scene(const SceneConfig& cfg);

  /// Runs the reader inventory over the full duration of `trace`,
  /// returning the raw tag report stream.
  rfid::TagReportStream run(const handwriting::WritingTrace& trace);

  rfid::Reader& reader() { return *reader_; }
  const rfid::Reader& reader() const { return *reader_; }
  const SceneConfig& config() const { return cfg_; }
  const std::vector<em::ReaderAntenna>& antennas() const {
    return reader_->antennas();
  }
  /// Board-plane positions (x, y) of the antennas, used by trackers.
  std::vector<Vec2> antenna_board_positions() const;

  /// Adds a scatterer (e.g. a bystander) to the channel.
  void add_scatterer(channel::Scatterer s);

 private:
  SceneConfig cfg_;
  std::unique_ptr<rfid::Reader> reader_;
};

/// Builds the antenna set for a rig layout. Exposed for tests.
std::vector<em::ReaderAntenna> build_rig(const SceneConfig& cfg);

/// Interpolates the trace at time t (clamping at the ends) and returns the
/// corresponding tag (position + dipole orientation).
em::Tag tag_at_time(const handwriting::WritingTrace& trace, double t_s);

}  // namespace polardraw::sim
