#include "core/polardraw.h"

#include <cmath>

#include "common/angles.h"
#include "core/hmm_tracker.h"

namespace polardraw::core {

PolarDraw::PolarDraw(PolarDrawConfig cfg, Vec2 a1, Vec2 a2, double antenna_z)
    : cfg_(cfg), a1_(a1), a2_(a2), antenna_z_(antenna_z) {}

TrackingResult PolarDraw::track(const rfid::TagReportStream& reports,
                                const PhaseCalibration* calibration) const {
  return track_windows(preprocess(reports, cfg_, calibration));
}

TrackingResult PolarDraw::track_windows(
    const std::vector<Window>& windows) const {
  TrackingResult result;
  if (windows.size() < 2) return result;

  // --- Per-window motion front end: push every window, then flush --------
  MotionFrontEnd front(cfg_);
  std::vector<TrackObservation> observations;
  observations.reserve(windows.size());
  result.diagnostics.reserve(windows.size());
  for (const Window& w : windows) {
    const MotionFrontEnd::Step step = front.push(w);
    switch (step.diagnostics.motion) {
      case MotionType::kRotational: ++result.rotational_windows; break;
      case MotionType::kTranslational: ++result.translational_windows; break;
      case MotionType::kIdle: ++result.idle_windows; break;
    }
    result.diagnostics.push_back(step.diagnostics);
    if (step.released) observations.push_back(step.released->obs);
  }
  if (auto tail = front.flush()) observations.push_back(tail->obs);

  // --- Decode + final rotation correction ----------------------------------
  const HmmTracker hmm(cfg_, a1_, a2_, antenna_z_);
  std::vector<Vec2> traj = hmm.decode(observations);

  // Tag-offset compensation: the decoded trajectory is the tag's; project
  // back to the pen tip using the tracked orientation. Only the
  // polarization-aware variant knows the azimuth.
  if (cfg_.use_polarization && cfg_.tag_offset_m > 0.0) {
    const double ce = std::cos(cfg_.alpha_e_rad);
    const double se = std::sin(cfg_.alpha_e_rad);
    // Hold the last rotational window's azimuth estimate between rotations.
    double azimuth = kPi / 2.0;  // neutral until first estimate
    for (std::size_t i = 0; i < traj.size(); ++i) {
      if (i < result.diagnostics.size() &&
          result.diagnostics[i].motion == MotionType::kRotational) {
        azimuth = result.diagnostics[i].direction.alpha_a_rad;
      }
      traj[i] -= Vec2{ce * std::cos(azimuth), se} * cfg_.tag_offset_m;
    }
  }
  result.azimuth_correction_rad = front.accumulated_correction();
  if (cfg_.use_polarization && cfg_.apply_rotation_correction &&
      std::fabs(result.azimuth_correction_rad) > 1e-9) {
    // Eq. 10: the azimuth error tilts the whole recovered trajectory;
    // rotate it back. The rotation-angle error equals the azimuth error to
    // first order in the writing model.
    traj = HmmTracker::rotate_trajectory(traj, result.azimuth_correction_rad);
  }
  if (cfg_.warmup_windows > 0 &&
      traj.size() > static_cast<std::size_t>(cfg_.warmup_windows) + 8) {
    traj.erase(traj.begin(), traj.begin() + cfg_.warmup_windows);
  }
  result.trajectory = std::move(traj);
  return result;
}

}  // namespace polardraw::core
