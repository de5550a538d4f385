#include "rfid/gen2.h"

#include <algorithm>
#include <cmath>

namespace polardraw::rfid {

Gen2Round Gen2Inventory::run_round(int num_tags) {
  Gen2Round round;
  const int q_int = static_cast<int>(std::lround(std::clamp(q_, cfg_.min_q, cfg_.max_q)));
  round.slots = 1 << q_int;

  // Each tag picks a slot uniformly. The draw is a pure splitmix64 mix of
  // (seed, round, tag): 2^Q is a power of two, so masking the well-mixed
  // 64-bit output is unbiased, and the pick is independent of how many
  // draws any earlier round consumed.
  const std::uint64_t round_key = splitmix64(seed_, round_);
  const auto mask = static_cast<std::uint64_t>(round.slots - 1);
  std::vector<int> occupancy(static_cast<std::size_t>(round.slots), 0);
  std::vector<int> winner(static_cast<std::size_t>(round.slots), -1);
  for (int t = 0; t < num_tags; ++t) {
    const auto slot = static_cast<std::size_t>(
        splitmix64(round_key, static_cast<std::uint64_t>(t)) & mask);
    occupancy[slot] += 1;
    winner[slot] = t;
  }
  ++round_;

  // Per-slot Qfp adaptation with QueryAdjust semantics: when the rounded
  // Qfp leaves the current Q, the reader cuts the round short and starts
  // a fresh one at the new Q (processing the rest of a mis-sized round
  // would overshoot the adaptation wildly).
  double q_float = q_;
  for (int s = 0; s < round.slots; ++s) {
    const int n = occupancy[static_cast<std::size_t>(s)];
    if (n == 0) {
      ++round.empties;
      round.duration_s += cfg_.slot_s;
      q_float = std::max(cfg_.min_q, q_float - kQStep);
    } else if (n == 1) {
      ++round.singletons;
      round.read_tags.push_back(winner[static_cast<std::size_t>(s)]);
      round.duration_s += cfg_.slot_s + cfg_.read_s;
      round.read_offsets_s.push_back(round.duration_s);
    } else {
      ++round.collisions;
      round.duration_s += cfg_.slot_s;
      // Empties slightly outnumber collisions at the optimum load, so the
      // collision step is larger (the standard leaves the ratio to the
      // implementation; ~1.7 balances near one tag per slot).
      q_float = std::min(cfg_.max_q, q_float + 1.7 * kQStep);
    }
    ++round.processed;
    if (std::lround(q_float) != q_int) break;  // QueryAdjust: re-frame
  }
  q_ = q_float;
  round.q_after = q_;
  return round;
}

std::vector<Gen2Round> Gen2Inventory::run(int num_tags, double duration_s) {
  std::vector<Gen2Round> rounds;
  double elapsed = 0.0;
  while (elapsed < duration_s) {
    rounds.push_back(run_round(num_tags));
    elapsed += rounds.back().duration_s;
    if (rounds.back().duration_s <= 0.0) break;  // defensive
  }
  return rounds;
}

double measure_read_rate(int num_tags, double duration_s, std::uint64_t seed) {
  Gen2Inventory inv(Gen2Config{}, Rng(seed));
  const auto rounds = inv.run(num_tags, duration_s);
  int reads = 0;
  double time = 0.0;
  for (const auto& r : rounds) {
    reads += r.singletons;
    time += r.duration_s;
  }
  return time > 0.0 ? reads / time : 0.0;
}

namespace {

/// Per-slot outcome probabilities for n tags over a (continuous) frame of
/// L slots: each tag picks a slot uniformly, so a given slot holds k tags
/// with Binomial(n, 1/L) probability.
struct SlotProbs {
  double empty, single, collision;
};

SlotProbs slot_probs(int n, double l_slots) {
  SlotProbs p{};
  if (l_slots <= 1.0) {
    // One slot: every responding tag lands in it.
    p.empty = n == 0 ? 1.0 : 0.0;
    p.single = n == 1 ? 1.0 : 0.0;
    p.collision = n >= 2 ? 1.0 : 0.0;
    return p;
  }
  const double miss = 1.0 - 1.0 / l_slots;
  p.empty = std::pow(miss, n);
  p.single = static_cast<double>(n) / l_slots * std::pow(miss, n - 1);
  p.collision = std::max(0.0, 1.0 - p.empty - p.single);
  return p;
}

}  // namespace

double steady_state_read_rate(int num_tags, const Gen2Config& cfg) {
  if (num_tags <= 0) return 0.0;
  const double l_min = std::pow(2.0, cfg.min_q);
  const double l_max = std::pow(2.0, cfg.max_q);
  // The C-algorithm drifts Q by -C per empty and +1.7 C per collision, so
  // its equilibrium frame size L* satisfies 1.7 * P_coll(L*) == P_empty(L*).
  // drift(L) = 1.7 P_coll - P_empty is monotone decreasing in L (more slots
  // mean fewer collisions, more empties); bisect, clamping to the Q range.
  const auto drift = [num_tags](double l) {
    const SlotProbs p = slot_probs(num_tags, l);
    return 1.7 * p.collision - p.empty;
  };
  double l_star;
  if (drift(l_min) <= 0.0) {
    l_star = l_min;  // population too small to collide: Q pins at min_q
  } else if (drift(l_max) >= 0.0) {
    l_star = l_max;
  } else {
    double lo = l_min, hi = l_max;
    for (int i = 0; i < 80; ++i) {
      const double mid = 0.5 * (lo + hi);
      (drift(mid) > 0.0 ? lo : hi) = mid;
    }
    l_star = 0.5 * (lo + hi);
  }
  const SlotProbs p = slot_probs(num_tags, l_star);
  const double per_slot_s = cfg.slot_s + p.single * cfg.read_s;
  return per_slot_s > 0.0 ? p.single / per_slot_s : 0.0;
}

}  // namespace polardraw::rfid
