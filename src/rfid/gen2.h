// EPC Gen2 slotted-ALOHA inventory at slot level, with Q adaptation.
//
// Gen2 readers run framed slotted ALOHA: each round opens 2^Q slots, every
// energized tag picks one uniformly, and a slot yields a read (exactly one
// tag), a collision (several), or silence (none). The reader adapts Q
// between rounds -- up on collisions, down on empties -- converging to
// roughly log2 of the responding population, which is how a real reader
// divides its read budget among multiple tags. `steady_state_read_rate`
// is the matching coarse closed-form model of that equilibrium; this class
// simulates the transient slot dynamics for studies that need them
// (multi-tag rates, collision overhead, starvation under contention).
//
// Determinism contract, pinned by tests/rfid/test_gen2.cc: every draw is a
// counter-based splitmix64 mix of (seed, round, tag) -- a pure function,
// never mutable engine state -- so round r of a population always picks
// the same slots no matter how many rounds ran before it was replayed, and
// two inventories with equal seeds are bit-identical round by round.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/seed.h"

namespace polardraw::rfid {

/// Q adaptation step (the standard's C constant, 0.1-0.5).
inline constexpr double kQStep = 0.3;

struct Gen2Config {
  /// Initial Q (2^Q slots per round). Speedway-class readers start ~4.
  double initial_q = 4.0;
  double min_q = 0.0;
  double max_q = 15.0;
  /// Slot duration, seconds (assumes FM0 at typical link timing).
  double slot_s = 0.0012;
  /// Extra time per successful read (EPC + handle exchange), seconds.
  double read_s = 0.0024;
};

/// Outcome counts for one inventory round.
struct Gen2Round {
  int slots = 0;        // frame size (2^Q)
  int processed = 0;    // slots actually run (QueryAdjust can cut early)
  int singletons = 0;   // successful reads
  int collisions = 0;
  int empties = 0;
  double q_after = 0.0;
  double duration_s = 0.0;
  /// Which tags (by index into the population) were read this round.
  std::vector<int> read_tags;
  /// Air-time offset (from the round start) at which each read in
  /// `read_tags` completed -- same length, same order. Lets a caller stamp
  /// per-read timestamps without re-deriving the slot schedule.
  std::vector<double> read_offsets_s;
};

/// Simulates framed-slotted-ALOHA rounds until `duration_s` of air time is
/// consumed, for a population of `num_tags` always-energized tags.
class Gen2Inventory {
 public:
  /// Counter-based construction: all slot choices derive from `seed` via
  /// splitmix64, see the determinism contract above.
  Gen2Inventory(Gen2Config cfg, std::uint64_t seed)
      : cfg_(cfg), seed_(seed), q_(cfg.initial_q) {}

  /// Legacy convenience: derives the counter seed from one engine draw, so
  /// existing call sites stay deterministic for a given Rng seed.
  Gen2Inventory(Gen2Config cfg, Rng rng)
      : Gen2Inventory(cfg, static_cast<std::uint64_t>(rng.engine()())) {}

  /// Runs one round; Q adapts per the standard's C-algorithm.
  Gen2Round run_round(int num_tags);

  /// Runs rounds until the air-time budget is exhausted; returns them all.
  std::vector<Gen2Round> run(int num_tags, double duration_s);

  double current_q() const { return q_; }
  /// Rounds run so far (the counter feeding the per-round slot draws).
  std::uint64_t rounds_run() const { return round_; }

 private:
  Gen2Config cfg_;
  std::uint64_t seed_;
  std::uint64_t round_ = 0;
  double q_;
};

/// Steady-state reads/second for a population size, measured by simulation
/// (convenience for benches/tests).
double measure_read_rate(int num_tags, double duration_s, std::uint64_t seed);

/// Coarse closed-form steady-state model of the same quantity: the
/// C-algorithm equilibrates where the per-slot Q drift vanishes
/// (empty-rate * C == collision-rate * 1.7 C); with that continuous frame
/// size L*, binomial slot outcomes give the read throughput
///   P_single / (slot_s + P_single * read_s).
/// `Reader::inventory_population` and `measure_read_rate` are the slot
/// simulations of this model; tests/rfid/test_gen2.cc pins their agreement
/// for 1-16 tags (tolerance documented in DESIGN.md section 16).
double steady_state_read_rate(int num_tags, const Gen2Config& cfg = {});

}  // namespace polardraw::rfid
