#include "baselines/grid_search.h"

// polarlint: hot-path -- no node-based hash maps in the decode loop.

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "baselines/windowing.h"
#include "common/angles.h"
#include "common/beam.h"

namespace polardraw::baselines {

std::vector<Vec2> grid_beam_decode(
    const GridConfig& cfg, const Vec2& start,
    const std::vector<em::ReaderAntenna>& antennas, const PhaseSteps& steps) {
  const int cols = std::max(1, static_cast<int>(cfg.board_width_m / cfg.block_m));
  const int rows = std::max(1, static_cast<int>(cfg.board_height_m / cfg.block_m));
  const auto cells = static_cast<std::size_t>(cols * rows);
  const auto center = [&](std::int32_t cell) {
    return Vec2{(static_cast<double>(cell % cols) + 0.5) * cfg.block_m,
                (static_cast<double>(cell / cols) + 0.5) * cfg.block_m};
  };
  const int c0 = std::clamp(static_cast<int>(start.x / cfg.block_m), 0, cols - 1);
  const int r0 = std::clamp(static_cast<int>(start.y / cfg.block_m), 0, rows - 1);
  const double upper = cfg.vmax_mps * cfg.window_s;
  const int reach = std::max(1, static_cast<int>(std::ceil(upper / cfg.block_m)));

  // Per-cell tables, one column per pair (kL_j - kL_i) and then per
  // antenna (kL_a): the phase, and its cos and sin.
  const std::size_t pairs = steps.pairs.size();
  const std::size_t width = pairs + antennas.size();
  std::vector<double> kl(cells * width), table(2 * cells * width);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    double* phase = &kl[cell * width];
    const Vec2 p = center(static_cast<std::int32_t>(cell));
    for (std::size_t a = 0; a < antennas.size(); ++a) {
      phase[pairs + a] =
          4.0 * kPi * link_length(p, antennas[a]) / cfg.wavelength_m;
    }
    for (std::size_t q = 0; q < pairs; ++q) {
      const auto [i, j] = steps.pairs[q];
      phase[q] = phase[pairs + static_cast<std::size_t>(j)] -
                 phase[pairs + static_cast<std::size_t>(i)];
    }
    for (std::size_t n = 0; n < width; ++n) {
      table[2 * (cell * width + n)] = std::cos(phase[n]);
      table[2 * (cell * width + n) + 1] = std::sin(phase[n]);
    }
  }

  // A step's measured terms, pairs first: the (c, s) dotted with a target's
  // (cos, sin) is of m, or for a port of m + kL_from (set per parent).
  struct Term {
    std::size_t column;
    double weight, m, c, s;
  };
  std::vector<Term> terms;
  std::vector<Beam> beams(steps.port_deltas.size() + 1);
  beams[0] = Beam{{r0 * cols + c0}, {0.0f}, {-1}};
  Beam& cand = thread_candidates();
  std::vector<std::int32_t> slot(cells, -1);  // a cell's candidate, or -1
  for (std::size_t t = 0; t + 1 < beams.size(); ++t) {
    terms.clear();
    for (std::size_t n = 0; n < width; ++n) {
      const double m = n < pairs ? steps.pair_diffs[t][n]
                                 : steps.port_deltas[t][n - pairs];
      const double w = n < pairs ? steps.pair_weight : steps.port_weight;
      if (!std::isnan(m)) terms.push_back({n, w, m, std::cos(m), std::sin(m)});
    }

    const Beam& prev = beams[t];
    cand.resize(0);
    for (std::size_t pi = 0; pi < prev.size(); ++pi) {
      const Vec2 from = center(prev.cell[pi]);
      const double* from_kl =
          &kl[static_cast<std::size_t>(prev.cell[pi]) * width];
      for (Term& term : terms) {
        if (term.column < pairs) continue;
        term.c = std::cos(term.m + from_kl[term.column]);
        term.s = std::sin(term.m + from_kl[term.column]);
      }
      const int pc = prev.cell[pi] % cols, pr = prev.cell[pi] / cols;
      const auto parent = static_cast<std::int32_t>(pi);
      for (int nr = std::max(pr - reach, 0);
           nr <= std::min(pr + reach, rows - 1); ++nr) {
        for (int nc = std::max(pc - reach, 0);
             nc <= std::min(pc + reach, cols - 1); ++nc) {
          const std::int32_t cell = nr * cols + nc;
          if (from.dist(center(cell)) > upper + 0.5 * cfg.block_m) continue;
          const double* row = &table[2 * static_cast<std::size_t>(cell) * width];
          double score = terms.empty() ? -0.1 : 0.0;  // drift on blind steps
          for (const Term& term : terms) {
            score += term.weight * (term.c * row[2 * term.column] +
                                    term.s * row[2 * term.column + 1] - 1.0);
          }
          // First touch places a cell; only a strictly better one replaces.
          const float lp = prev.logp[pi] + static_cast<float>(score);
          std::int32_t& at = slot[static_cast<std::size_t>(cell)];
          if (at < 0) {
            at = static_cast<std::int32_t>(cand.size());
            cand.cell.push_back(cell);
            cand.logp.push_back(lp);
            cand.parent.push_back(parent);
          } else if (lp > cand.logp[static_cast<std::size_t>(at)]) {
            cand.logp[static_cast<std::size_t>(at)] = lp;
            cand.parent[static_cast<std::size_t>(at)] = parent;
          }
        }
      }
    }
    for (const std::int32_t c : cand.cell) slot[static_cast<std::size_t>(c)] = -1;
    // Never empty: a parent's own cell passes the speed test.
    prune_beam(cand, cfg.beam_width, cells, beams[t + 1]);
  }

  std::vector<Vec2> out(beams.size());
  std::size_t a = best_node(beams.back());
  for (std::size_t s = beams.size(); s-- > 0;) {
    out[s] = center(beams[s].cell[a]);
    a = static_cast<std::size_t>(beams[s].parent[a]);
  }
  return out;
}

}  // namespace polardraw::baselines
