#include "core/translation_tracker.h"

#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace polardraw::core {

BoardDirection TranslationTracker::decode(double dtheta1, double dtheta2,
                                          double min_delta_rad) {
  if (std::fabs(dtheta1) < min_delta_rad &&
      std::fabs(dtheta2) < min_delta_rad) {
    // Below the noise floor the pen is static.
    return BoardDirection::kNone;
  }
  // Robust form of Table 4: the common-mode component (sum) captures
  // vertical motion, the differential component horizontal motion; decode
  // whichever dominates.
  const double common = dtheta1 + dtheta2;
  const double diff = dtheta1 - dtheta2;
  if (std::fabs(common) >= std::fabs(diff)) {
    return common < 0.0 ? BoardDirection::kUp : BoardDirection::kDown;
  }
  return diff < 0.0 ? BoardDirection::kLeft : BoardDirection::kRight;
}

DirectionEstimate TranslationTracker::step(double dtheta1,
                                           double dtheta2) const {
  static const obs::SpanSite span_site("core.translation_step");
  const obs::ScopedSpan span(span_site);
  static const obs::Counter steps_counter("translation.steps");
  steps_counter.add();
  DirectionEstimate est;
  const BoardDirection d = decode(dtheta1, dtheta2, cfg_.min_phase_delta_rad);
  if (d == BoardDirection::kNone) {
    est.type = MotionType::kIdle;
    return est;
  }
  est.type = MotionType::kTranslational;
  est.direction = to_vector(d);
  return est;
}

}  // namespace polardraw::core
