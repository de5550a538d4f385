#include "core/polardraw.h"

#include <cmath>
#include <memory>
#include <utility>

#include "common/angles.h"
#include "core/phase_field.h"
#include "core/rotation_tracker.h"
#include "core/streaming_decoder.h"
#include "obs/trace.h"

namespace polardraw::core {

PolarDraw::PolarDraw(PolarDrawConfig cfg, Vec2 a1, Vec2 a2, double antenna_z)
    : cfg_(cfg), a1_(a1), a2_(a2), antenna_z_(antenna_z) {}

TrackingResult PolarDraw::track(const rfid::TagReportStream& reports,
                                const PhaseCalibration* calibration) const {
  const std::vector<Window> windows = preprocess(reports, cfg_, calibration);
  TrackingResult result;
  if (windows.size() < 2) return result;

  // --- Per-window motion front end: push every window, then flush --------
  MotionFrontEnd front(cfg_);
  std::vector<TrackObservation> observations;
  observations.reserve(windows.size());
  result.diagnostics.reserve(windows.size());
  for (const Window& w : windows) {
    const MotionFrontEnd::Step step = front.push(w);
    switch (step.raw.obs.direction.type) {
      case MotionType::kRotational: ++result.rotational_windows; break;
      case MotionType::kTranslational: ++result.translational_windows; break;
      case MotionType::kIdle: ++result.idle_windows; break;
    }
    result.diagnostics.push_back(step.raw);
    if (step.released) observations.push_back(step.released->obs);
  }
  if (auto tail = front.flush()) observations.push_back(tail->obs);

  // --- Decode + final rotation correction ----------------------------------
  // The phase field is built before the span opens, so core.hmm_decode
  // times the Viterbi pass alone.
  auto field = std::make_shared<const PhaseField>(cfg_, a1_, a2_, antenna_z_);
  std::vector<Vec2> traj;
  {
    static const obs::SpanSite span_site("core.hmm_decode");
    static const obs::TraceName arg_windows("windows");
    obs::ScopedSpan span(span_site);
    span.arg(arg_windows, static_cast<double>(observations.size()));
    traj = decode_full_lag(cfg_, a1_, a2_, antenna_z_, observations, nullptr,
                           std::move(field));
  }

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
          result.diagnostics[i].obs.direction.type ==
              MotionType::kRotational) {
        azimuth = result.diagnostics[i].obs.direction.alpha_a_rad;
      }
      traj[i] -= Vec2{ce * std::cos(azimuth), se} * cfg_.tag_offset_m;
    }
  }
  // Eq. 10: the azimuth error tilts the whole recovered trajectory.
  result.azimuth_correction_rad = front.azimuth_correction_rad();
  traj = correct_initial_azimuth(cfg_, std::move(traj),
                                 result.azimuth_correction_rad);
  if (traj.size() > static_cast<std::size_t>(kWarmupWindows) + 8) {
    traj.erase(traj.begin(), traj.begin() + kWarmupWindows);
  }
  result.trajectory = std::move(traj);
  return result;
}

}  // namespace polardraw::core
