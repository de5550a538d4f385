#include "sim/scene.h"

#include <algorithm>
#include <cmath>

#include "common/angles.h"

namespace polardraw::sim {

std::vector<em::ReaderAntenna> build_rig(const SceneConfig& cfg) {
  // Geometry (matching the paper's Figs. 4/6/8): the board is the X-Y
  // plane; antennas hang above the writing area looking DOWN (-Y
  // boresight). The plane transverse to that line of sight is X-Z -- the
  // same plane the pen azimuth alpha_a sweeps -- so a linear antenna's
  // polarization axis lives in X-Z at an angle +/- gamma from the Z axis
  // ("their angles with the Z-axis are equal", section 3.3.1).
  //
  // "Tag-to-reader distance" (Table 5's knob) is the vertical standoff
  // from the center of the writing area to the antenna line.
  std::vector<em::ReaderAntenna> rig;
  const double cx = cfg.board_width_m / 2.0;
  const double write_cy = 0.25;  // vertical center of the writing block
  const double top = write_cy + cfg.antenna_standoff_m;
  const double z = 0.12;  // slight out-of-board offset of the mounts
  const double half = kAntennaSpacingM / 2.0;

  const auto face_down = [](em::ReaderAntenna a) {
    a.boresight = Vec3{0.0, -1.0, 0.0};
    return a;
  };
  // Linear antenna looking down with polarization axis in the X-Z plane
  // at `angle_from_x_rad` (pi/2 +/- gamma puts it gamma off the Z axis).
  const auto linear_down = [&](const Vec3& pos, double angle_from_x_rad) {
    em::ReaderAntenna a = em::make_linear_antenna(pos, angle_from_x_rad);
    a.boresight = Vec3{0.0, -1.0, 0.0};
    a.polarization_axis =
        Vec3{std::cos(angle_from_x_rad), 0.0, std::sin(angle_from_x_rad)};
    return a;
  };

  switch (cfg.layout) {
    case RigLayout::kPolarDrawTwoAntenna: {
      // Antenna 0 ("antenna 1" of Fig. 8c) at pi/2 + gamma from +X,
      // antenna 1 at pi/2 - gamma.
      rig.push_back(linear_down(Vec3{cx - half, top, z}, kPi / 2.0 + cfg.gamma_rad));
      rig.push_back(linear_down(Vec3{cx + half, top, z}, kPi / 2.0 - cfg.gamma_rad));
      break;
    }
    case RigLayout::kTagoramTwoAntenna: {
      rig.push_back(face_down(em::make_circular_antenna(Vec3{cx - half, top, z})));
      rig.push_back(face_down(em::make_circular_antenna(Vec3{cx + half, top, z})));
      break;
    }
    case RigLayout::kTagoramFourAntenna: {
      // Four circular antennas boxing the writing block (Fig. 17 left):
      // corners of an 86.5 x 56 cm rectangle centered on the block,
      // standing off the board plane and facing it. Section 7 notes
      // Tagoram "requires a relatively close antenna spacing, so that the
      // tag is within the coverage area of all four antennas".
      const double hx = 0.865 / 2.0, hy = 0.56 / 2.0;
      const double standoff = cfg.antenna_standoff_m;
      rig.push_back(
          em::make_circular_antenna(Vec3{cx - hx, write_cy + hy, standoff}));
      rig.push_back(
          em::make_circular_antenna(Vec3{cx + hx, write_cy + hy, standoff}));
      rig.push_back(
          em::make_circular_antenna(Vec3{cx - hx, write_cy - hy, standoff}));
      rig.push_back(
          em::make_circular_antenna(Vec3{cx + hx, write_cy - hy, standoff}));
      break;
    }
    case RigLayout::kRfIdrawFourAntenna: {
      // Two 2-element arrays (Fig. 17 right): each array a closely-spaced
      // pair, the arrays 86.5 cm apart, one tilted -- here one horizontal
      // above the block and one vertical beside it, standing off the
      // board and facing it, giving AoA diversity in both axes.
      const double fine = 0.17;  // ~lambda/2 within an array
      const double standoff = cfg.antenna_standoff_m;
      rig.push_back(em::make_circular_antenna(
          Vec3{cx - 0.865 / 2.0, write_cy + 0.30, standoff}));
      rig.push_back(em::make_circular_antenna(
          Vec3{cx - 0.865 / 2.0 + fine, write_cy + 0.30, standoff}));
      rig.push_back(em::make_circular_antenna(
          Vec3{cx + 0.865 / 2.0, write_cy + 0.15, standoff}));
      rig.push_back(em::make_circular_antenna(
          Vec3{cx + 0.865 / 2.0, write_cy + 0.15 - fine, standoff}));
      break;
    }
  }
  return rig;
}

Scene::Scene(const SceneConfig& cfg) : cfg_(cfg) {
  Rng rng(cfg.seed);
  auto channel = channel::make_office_channel(cfg.clutter_count);
  reader_ = std::make_unique<rfid::Reader>(cfg.reader, build_rig(cfg),
                                           std::move(channel), rng.fork());
}

void Scene::add_scatterer(channel::Scatterer s) {
  reader_->channel().add(std::move(s));
}

std::vector<Vec2> Scene::antenna_board_positions() const {
  std::vector<Vec2> out;
  out.reserve(antennas().size());
  for (const auto& a : antennas()) out.push_back(a.position.xy());
  return out;
}

em::Tag tag_at_time(const handwriting::WritingTrace& trace, double t_s) {
  const auto& samples = trace.samples;
  if (samples.empty()) return em::Tag{};

  // Binary search for the sample interval containing t_s.
  const auto it = std::lower_bound(
      samples.begin(), samples.end(), t_s,
      [](const handwriting::TraceSample& s, double t) { return s.t_s < t; });

  handwriting::TraceSample interp;
  if (it == samples.begin()) {
    interp = samples.front();
  } else if (it == samples.end()) {
    interp = samples.back();
  } else {
    const auto& hi = *it;
    const auto& lo = *(it - 1);
    const double span = hi.t_s - lo.t_s;
    const double f = span > 0.0 ? (t_s - lo.t_s) / span : 0.0;
    interp.t_s = t_s;
    interp.tag_pos = lo.tag_pos + (hi.tag_pos - lo.tag_pos) * f;
    interp.angles.azimuth_rad =
        lo.angles.azimuth_rad + angle_diff(hi.angles.azimuth_rad, lo.angles.azimuth_rad) * f;
    interp.angles.elevation_rad =
        lo.angles.elevation_rad +
        angle_diff(hi.angles.elevation_rad, lo.angles.elevation_rad) * f;
    interp.pen_down = lo.pen_down;
  }
  return em::make_pen_tag(interp.tag_pos, interp.angles);
}

rfid::TagReportStream Scene::run(const handwriting::WritingTrace& trace) {
  if (trace.samples.empty()) return {};
  const auto tag_fn = [&trace](double t) { return tag_at_time(trace, t); };
  reader_->select_modulation(tag_fn);
  return reader_->inventory(tag_fn, trace.samples.front().t_s,
                            trace.samples.back().t_s);
}

}  // namespace polardraw::sim
