// Test-only oracle for the beam-expansion kernel (core/expand_kernel.h).
//
// This is the historical per-candidate scalar loop of
// StreamingDecoder::step, the semantics the golden decodes were captured
// with: an exact annulus test on block-center differences, a per-cell
// hyperbola-term memo and one log per accepted candidate. It is lifted
// verbatim, with its own copy of the per-window hoists, so a bug in the
// production kernel's hoists cannot hide in both. Nothing under src/ or
// bench/ includes it.
//
// The reach is not capped at the grid here (the production kernel caps it
// before its int cast), so feed it only finite bounds well below INT_MAX
// blocks.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/angles.h"
#include "common/vec.h"
#include "core/config.h"
#include "core/expand_kernel.h"
#include "core/motion.h"
#include "core/phase_field.h"
#include "scoreboard.h"

namespace polardraw::core::testing {

class ExpandReference {
 public:
  /// `field` must outlive the oracle.
  ExpandReference(const PolarDrawConfig& cfg, const PhaseField& field)
      : cfg_(cfg),
        field_(field),
        cols_(field.cols()),
        rows_(field.rows()),
        best_slot_(field.cells()),
        hyper_term_(field.cells()) {}

  /// Same contract as expand_beam (core/expand_kernel.h): like the kernel,
  /// it takes unit or zero directions. StreamingDecoder::push normalizes
  /// them, and ExpandKernel.NonUnitDirectionDecodesLikeItsNormalizedSelf
  /// pins that.
  void expand(const TrackObservation& o, const Beam& prev, Beam& cand,
              ExpandStats& stats) {
    const WindowTerms w = window_terms(o);
    fill_dc_limits(w);
    best_slot_.clear();
    cand.resize(0);

    const PhaseField& field = field_;
    const int reach = w.reach_blocks;
    hyper_term_.clear();

    for (std::size_t a = 0; a < prev.size(); ++a) {
      const std::int32_t pcell = prev.cell[a];
      const int pr = pcell / cols_;
      const int pc = pcell % cols_;
      const float plp = prev.logp[a];
      const double fx = field.center_x(pc);
      const double fy = field.center_y(pr);
      const int dr_lo = std::max(-reach, -pr);
      const int dr_hi = std::min(reach, rows_ - 1 - pr);
      for (int dr = dr_lo; dr <= dr_hi; ++dr) {
        const int nr = pr + dr;
        const double ty = field.center_y(nr);
        const double ddy = fy - ty;
        const int lim = dc_lim_[static_cast<std::size_t>(dr < 0 ? -dr : dr)];
        const int dc_lo = std::max(-lim, -pc);
        const int dc_hi = std::min(lim, cols_ - 1 - pc);
        const std::int32_t row_base = nr * cols_;
        for (int dc = dc_lo; dc <= dc_hi; ++dc) {
          const int nc = pc + dc;
          const double tx = field.center_x(nc);
          const double ddx = fx - tx;
          const double step_m = std::sqrt(ddx * ddx + ddy * ddy);
          // Annulus membership (Eq. 8); allow a quarter-block tolerance so
          // the discretization cannot strand the chain, while keeping the
          // lower bound binding (it is the phase-derived minimum motion).
          if (step_m > w.out_thresh_m) {
            ++stats.annulus_rejected;
            continue;
          }
          if (step_m + w.quarter_block_m < w.lower_m) {
            ++stats.annulus_rejected;
            continue;
          }
          ++stats.expansions;

          const std::size_t ncell = static_cast<std::size_t>(row_base + nc);
          // Hyperbola term of Eq. 11: 1 - |dtheta_meas - dtheta(x,y)| /
          // (4*pi), compared circularly against the cached field.
          double weight;
          if (w.use_hyper) {
            if (hyper_term_.contains(ncell)) {
              weight = hyper_term_.get(ncell);
            } else {
              const double mismatch =
                  angle_dist(field.phase_at_cell(ncell), w.meas_rad);
              const double term =
                  std::max(1.0 - mismatch / (4.0 * kPi), kWeightFloor);
              weight = cfg_.hyperbola_sharpness == 1.0
                           ? term
                           : std::pow(term, cfg_.hyperbola_sharpness);
              hyper_term_.put(ncell, weight);
            }
          } else {
            weight = 1.0;
          }

          // Direction-line term of Eq. 11: perpendicular distance from the
          // candidate to the line through the previous location along the
          // estimated moving direction, normalized by the max displacement.
          if (w.use_dir) {
            const double rx = tx - fx;
            const double ry = ty - fy;
            const double perp = std::fabs(rx * w.dir.y - ry * w.dir.x);
            double term = std::max(1.0 - perp / w.dmax_m, kWeightFloor);
            // Half-plane preference: candidates behind the motion direction
            // are inconsistent with the estimated heading.
            if (rx * w.dir.x + ry * w.dir.y < w.back_thresh_m) term *= 0.25;
            weight *= term;
          }

          if (w.idle_step_penalty) {
            // No direction estimate this window: tie-break toward small
            // steps (an undetected motion is a small motion), otherwise
            // the annulus blocks tie -- exactly along the hyperbola when
            // phase is present, everywhere when it is not -- and the
            // argmax drifts.
            const double frac = step_m / w.upper_m;
            weight *= std::exp(-kUnobservedStepPenalty * frac * frac);
          }

          const float lp =
              plp +
              static_cast<float>(std::log(std::max(weight, kWeightFloor)));
          if (!best_slot_.contains(ncell)) {
            best_slot_.put(ncell, static_cast<std::int32_t>(cand.size()));
            cand.cell.push_back(static_cast<std::int32_t>(ncell));
            cand.logp.push_back(lp);
            cand.parent.push_back(static_cast<std::int32_t>(a));
          } else {
            const std::int32_t slot = best_slot_.get(ncell);
            if (lp > cand.logp[static_cast<std::size_t>(slot)]) {
              cand.logp[static_cast<std::size_t>(slot)] = lp;
              cand.parent[static_cast<std::size_t>(slot)] =
                  static_cast<std::int32_t>(a);
            }
          }
        }
      }
    }
  }

 private:
  static constexpr double kWeightFloor = 1e-6;

  struct WindowTerms {
    double lower_m = 0.0;
    double upper_m = 0.0;
    double out_thresh_m = 0.0;
    double quarter_block_m = 0.0;
    int reach_blocks = 1;
    bool use_hyper = false;
    double meas_rad = 0.0;
    bool use_dir = false;
    Vec2 dir;
    double dmax_m = 0.0;
    double back_thresh_m = 0.0;
    bool idle_step_penalty = false;
  };

  WindowTerms window_terms(const TrackObservation& o) const {
    WindowTerms w;
    // Feasible annulus in blocks. An invalid (inconsistent) distance
    // estimate degrades to "anywhere within the speed limit".
    w.lower_m = o.distance.valid ? o.distance.lower_m : 0.0;
    w.upper_m =
        std::max({o.distance.upper_m, w.lower_m, cfg_.block_m * 0.5});
    w.reach_blocks =
        std::max(1, static_cast<int>(std::ceil(w.upper_m / cfg_.block_m)));
    w.out_thresh_m = w.upper_m + 0.5 * cfg_.block_m;
    w.quarter_block_m = 0.25 * cfg_.block_m;
    w.use_hyper =
        cfg_.use_hyperbola_constraint && o.has_phase && o.distance.valid;
    w.meas_rad = w.use_hyper ? wrap_2pi(o.distance.dtheta21) : 0.0;
    w.use_dir = o.direction.type != MotionType::kIdle &&
                o.direction.direction.norm_sq() > 0.0;
    w.dir = o.direction.direction;
    w.dmax_m = std::max(o.distance.upper_m, cfg_.block_m);
    w.back_thresh_m = -0.25 * cfg_.block_m;
    w.idle_step_penalty =
        o.direction.type == MotionType::kIdle && w.upper_m > 0.0;
    return w;
  }

  void fill_dc_limits(const WindowTerms& w) {
    // Integer annulus bound: a candidate |dc| blocks away horizontally and
    // |dr| vertically is at least ~sqrt(dc^2+dr^2) blocks out, so columns
    // beyond this limit cannot pass the exact outer-radius test (the +1
    // absorbs block-center rounding). Rows stay within [-reach, reach].
    const int reach = w.reach_blocks;
    const double r_blocks = w.out_thresh_m / cfg_.block_m;
    dc_lim_.assign(static_cast<std::size_t>(reach) + 1, 0);
    for (int dr = 0; dr <= reach; ++dr) {
      const double rem = r_blocks * r_blocks - static_cast<double>(dr) * dr;
      dc_lim_[static_cast<std::size_t>(dr)] =
          rem <= 0.0 ? 0
                     : std::min(reach, static_cast<int>(std::sqrt(rem)) + 1);
    }
  }

  const PolarDrawConfig cfg_;
  const PhaseField& field_;
  const int cols_, rows_;
  GenerationScoreboard<std::int32_t> best_slot_;
  GenerationScoreboard<double> hyper_term_;
  std::vector<int> dc_lim_;
};

}  // namespace polardraw::core::testing
