#include "core/motion_front_end.h"

#include <algorithm>
#include <cmath>

namespace polardraw::core {

MotionFrontEnd::MotionFrontEnd(const PolarDrawConfig& cfg)
    : cfg_(cfg), rotation_(cfg), translation_(cfg), distance_(cfg) {}

MotionFrontEnd::Step MotionFrontEnd::push(const Window& w) {
  // --- Deltas vs the previous valid window ----------------------------------
  double ds[2] = {0.0, 0.0};
  bool ds_ok = true;
  for (int a = 0; a < 2; ++a) {
    if (w.rss_valid[a] && have_rss_[a]) {
      ds[a] = w.rss_dbm[a] - prev_rss_dbm_[a];
    } else {
      ds_ok = false;
    }
  }
  double dtheta[2] = {0.0, 0.0};
  bool dtheta_ok = true;
  for (int a = 0; a < 2; ++a) {
    // A frequency hop that PhaseGate fenced re-based the phase (an
    // uncalibrated per-channel offset): the delta across it is not motion.
    if (w.phase_valid[a] && have_phase_[a] && !w.hop_fenced[a]) {
      dtheta[a] = w.phase_rad[a] - prev_phase_rad_[a];
    } else {
      dtheta_ok = false;
    }
  }

  // --- Motion classification (section 3.3's RSS-trend split) --------------
  DirectionEstimate dir;
  const bool phase_direction = dtheta_ok && cfg_.use_phase_direction;
  const bool rotational =
      cfg_.use_polarization && ds_ok &&
      std::max(std::fabs(ds[0]), std::fabs(ds[1])) >= kRotationRssDeltaDb;
  if (rotational) {
    dir = rotation_.step(ds[0], ds[1]);
    // If the trend pattern did not decode, fall through to translation.
    if (dir.type == MotionType::kIdle && phase_direction) {
      dir = translation_.step(dtheta[0], dtheta[1]);
    }
  } else if (phase_direction) {
    dir = translation_.step(dtheta[0], dtheta[1]);
  }

  // --- Displacement bounds + hyperbola --------------------------------------
  // Without phase this window, displacement is bounded only by the speed
  // limit.
  TrackObservation obs = unobserved_window(cfg_);
  obs.direction = dir;
  if (dtheta_ok && w.both_phase_valid()) {
    obs.distance = distance_.estimate(dtheta[0], dtheta[1], w.phase_rad[0],
                                      w.phase_rad[1]);
    obs.has_phase = true;
  }

  // --- Roll the "previous valid" state --------------------------------------
  for (int a = 0; a < 2; ++a) {
    if (w.rss_valid[a]) {
      prev_rss_dbm_[a] = w.rss_dbm[a];
      have_rss_[a] = true;
    }
    if (w.phase_valid[a]) {
      prev_phase_rad_[a] = w.phase_rad[a];
      have_phase_[a] = true;
    }
  }

  Step step;
  step.raw = TimedObservation{w.t_s, obs};
  if (held_) step.released = release(&dir.direction);
  held_ = step.raw;
  return step;
}

std::optional<TimedObservation> MotionFrontEnd::flush() {
  if (!held_) return std::nullopt;
  return release(nullptr);
}

TimedObservation MotionFrontEnd::release(const Vec2* next_raw) {
  TimedObservation out = *held_;
  held_.reset();
  DirectionEstimate& dir = out.obs.direction;
  const Vec2 raw = dir.direction;
  if (cfg_.smooth_directions && dir.type != MotionType::kIdle) {
    Vec2 acc = raw * 0.5;
    if (before_held_raw_) acc += *before_held_raw_ * 0.25;
    if (next_raw != nullptr) acc += *next_raw * 0.25;
    // Opposing neighbours can cancel; keep the raw decode then.
    if (acc.norm() > 0.2) dir.direction = acc.normalized();
  }
  before_held_raw_ = raw;
  return out;
}

}  // namespace polardraw::core
