#include "core/hmm_tracker.h"

// The Viterbi hot loop lives in core/streaming_decoder.cc; the batch
// decode below is a thin full-lag wrapper around it.

#include <limits>
#include <utility>

#include "common/angles.h"
#include "core/streaming_decoder.h"
#include "obs/trace.h"

namespace polardraw::core {

HmmTracker::HmmTracker(const PolarDrawConfig& cfg, Vec2 a1, Vec2 a2,
                       double antenna_z,
                       std::shared_ptr<const PhaseField> field)
    : cfg_(cfg),
      a1_(a1),
      a2_(a2),
      antenna_z_(antenna_z),
      field_(field != nullptr
                 ? std::move(field)
                 : std::make_shared<const PhaseField>(cfg, a1, a2, antenna_z)),
      cols_(field_->cols()),
      rows_(field_->rows()) {}

Vec2 initial_location_on_field(const PolarDrawConfig& cfg,
                               const PhaseField& field, double dtheta21) {
  // Scan the cached field for blocks whose expected inter-antenna phase
  // difference matches the measurement; among matches prefer the one
  // nearest the board center (the paper picks a point on a candidate
  // hyperbola arbitrarily -- absolute position is unobservable; only
  // trajectory shape matters).
  const Vec2 center{cfg.board_width_m / 2.0, cfg.board_height_m / 2.0};
  const double target = wrap_2pi(dtheta21);
  double best_score = std::numeric_limits<double>::infinity();
  Vec2 best = center;
  for (int r = 0; r < field.rows(); ++r) {
    for (int c = 0; c < field.cols(); ++c) {
      const double mismatch = angle_dist(field.phase_at(c, r), target);
      // The center-distance term only adds; skip the sqrt when the phase
      // mismatch alone already loses.
      if (mismatch * 2.0 >= best_score) continue;
      const Vec2 p = field.block_center(c, r);
      const double score = mismatch * 2.0 + p.dist(center);
      if (score < best_score) {
        best_score = score;
        best = p;
      }
    }
  }
  return best;
}

std::vector<Vec2> HmmTracker::decode(const std::vector<TrackObservation>& obs,
                                     const Vec2* initial_hint) const {
  static const obs::SpanSite span_site("core.hmm_decode");
  static const obs::TraceName arg_windows("windows");
  obs::ScopedSpan span(span_site);
  span.arg(arg_windows, static_cast<double>(obs.size()));
  std::vector<Vec2> traj;
  if (obs.empty()) return traj;

  // The batch decode is the streaming decoder run with a lag longer than
  // the sequence: nothing commits until finish(), whose final backtrace is
  // exactly the classic Viterbi backtrace. Keeping a single forward-pass
  // implementation is what makes the fixed-lag equivalence contract
  // (tests/core/test_streaming_decoder.cc) hold bit for bit.
  StreamingConfig scfg;
  scfg.lag_windows = obs.size() + 1;
  StreamingDecoder decoder(cfg_, a1_, a2_, antenna_z_, scfg, field_,
                           initial_hint);
  for (const TrackObservation& o : obs) decoder.push(o);
  traj.reserve(obs.size() + 1);
  decoder.finish(traj);
  return traj;
}

std::vector<Vec2> HmmTracker::rotate_trajectory(const std::vector<Vec2>& traj,
                                                double alpha_r_error_rad) {
  if (traj.empty()) return traj;
  Vec2 centroid;
  for (const Vec2& p : traj) centroid += p;
  centroid = centroid / static_cast<double>(traj.size());
  std::vector<Vec2> out;
  out.reserve(traj.size());
  for (const Vec2& p : traj) {
    out.push_back(centroid + (p - centroid).rotated(-alpha_r_error_rad));
  }
  return out;
}

}  // namespace polardraw::core
