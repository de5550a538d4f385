// Beam steps and the one prune of PolarDraw's StreamingDecoder and the
// baselines' grid_beam_decode (DESIGN.md section 14), over one set of
// candidates and radix keys per thread, overwritten by every window.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace polardraw {

/// Resizes `v` to `n`, doubling its capacity to grow but never past
/// max(n, `limit`): the per-thread decode scratch keeps what it reaches.
template <class T>
void resize_within(std::vector<T>& v, std::size_t n, std::size_t limit) {
  if (n > v.capacity())
    v.reserve(std::max(n, std::min(2 * v.capacity(), limit)));
  v.resize(n);
}

/// One beam step, structure-of-arrays: the nodes a window keeps (or the
/// candidates it scores). parent[i] indexes the step before; -1 marks the
/// seed.
struct Beam {
  std::vector<std::int32_t> cell;
  std::vector<float> logp;
  std::vector<std::int32_t> parent;

  [[nodiscard]] std::size_t size() const { return cell.size(); }
  void resize(std::size_t n) {  // a step or candidate set needs exactly n
    resize_within(cell, n, n);
    resize_within(logp, n, n);
    resize_within(parent, n, n);
  }
};

/// Index of the first most probable node of a non-empty beam.
std::size_t best_node(const Beam& b);

/// The calling thread's candidate buffer, which a decoder fills for one
/// window and hands to prune_beam.
Beam& thread_candidates();

/// Subtracts the largest log-prob of the non-empty, NaN-free `cand` (and
/// returns it), then writes to `next` every candidate in index order when
/// there are at most `width`, else the first `width` in (log-prob
/// descending, index ascending) order. `cells` caps the radix keys' growth.
float prune_beam(Beam& cand, std::size_t width, std::size_t cells,
                 Beam& next);

}  // namespace polardraw
