#include "common/beam.h"

// polarlint: hot-path -- no node-based hash maps in the prune.

#include <array>
#include <bit>

namespace polardraw {

namespace {

/// Radix key of a renormalized log-prob that ascends as the log-prob
/// descends. A renormalized log-prob is at most 0, and a negative float's
/// bits already ascend as it descends; adding +0.0f turns -0 into +0, whose
/// bits are 0, so the two tie as they compare equal and lead every
/// negative one.
std::uint32_t descending_key(float logp) {
  return std::bit_cast<std::uint32_t>(logp + 0.0f);
}

/// Stable LSD radix sort of `v` on its high 32 bits: four 8-bit passes,
/// counted in one sweep. `tmp` is scratch.
void radix_sort_high_word(std::vector<std::uint64_t>& v,
                          std::vector<std::uint64_t>& tmp) {
  std::array<std::array<std::uint32_t, 256>, 4> offset{};
  for (const std::uint64_t x : v) {
    for (std::size_t p = 0; p < 4; ++p) {
      ++offset[p][(x >> (32 + 8 * p)) & 0xFFu];
    }
  }
  resize_within(tmp, v.size(), v.capacity());
  for (std::size_t p = 0; p < 4; ++p) {
    std::uint32_t sum = 0;
    for (std::uint32_t& o : offset[p]) {
      const std::uint32_t count = o;
      o = sum;
      sum += count;
    }
    const std::size_t shift = 32 + 8 * p;
    for (const std::uint64_t x : v) tmp[offset[p][(x >> shift) & 0xFFu]++] = x;
    v.swap(tmp);
  }
}

/// A window's candidates and the radix keys that rank them, (key << 32) |
/// index: the calling thread's, like the expand kernel's scratch.
struct PruneScratch {
  Beam cand;
  std::vector<std::uint64_t> keys, tmp;
};

thread_local PruneScratch tls_prune;

}  // namespace

std::size_t best_node(const Beam& b) {
  std::size_t best = 0;
  for (std::size_t a = 1; a < b.size(); ++a) {
    if (b.logp[a] > b.logp[best]) best = a;
  }
  return best;
}

Beam& thread_candidates() { return tls_prune.cand; }

float prune_beam(Beam& cand, std::size_t width, std::size_t cells,
                 Beam& next) {
  // Renormalization: unnormalized float log-probs lose the resolution
  // that separates candidates after ~1e4 windows. With the max subtracted
  // the front max is exactly 0 (x - x is exact); one common shift keeps
  // the argmax chain, and the ties it creates fall to the index order.
  float wmax = cand.logp[0];
  for (std::size_t i = 1; i < cand.size(); ++i)
    wmax = std::max(wmax, cand.logp[i]);
  for (float& lp : cand.logp) lp -= wmax;

  // A stable radix sort on the descending key, started in index order, is
  // (log-prob descending, index ascending) exactly. Survivors are written
  // by index, so a step's capacity stays at the beam width.
  const std::size_t n_cand = cand.size();
  if (n_cand > width) {
    PruneScratch& scratch = tls_prune;
    resize_within(scratch.keys, n_cand, cells);  // a key per cell
    for (std::size_t i = 0; i < n_cand; ++i) {
      scratch.keys[i] =
          (static_cast<std::uint64_t>(descending_key(cand.logp[i])) << 32) |
          i;
    }
    radix_sort_high_word(scratch.keys, scratch.tmp);
    next.resize(width);
    for (std::size_t i = 0; i < width; ++i) {
      const auto s = static_cast<std::size_t>(scratch.keys[i] & 0xFFFFFFFFu);
      next.cell[i] = cand.cell[s];
      next.logp[i] = cand.logp[s];
      next.parent[i] = cand.parent[s];
    }
  } else {
    next = cand;
  }
  return wmax;
}

}  // namespace polardraw
