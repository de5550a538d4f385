// Experiment harness shared by the benchmark binaries, examples and
// integration tests: synthesizes writing, runs the chosen tracking system
// on the simulated RFID stream, and scores the result against ground truth.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/vec.h"
#include "core/config.h"
#include "handwriting/synthesizer.h"
#include "recognition/classifier.h"
#include "sim/scene.h"

namespace polardraw::eval {

/// Tracking system under test.
enum class System {
  kPolarDraw,        // 2 linear antennas, full algorithm
  kPolarDrawNoPol,   // Table 6 ablation: orientation model removed
  kPolarDrawNoPolPhaseDir,  // charitable ablation: phase-trend direction kept
  kTagoram2,         // Tagoram with 2 circular antennas
  kTagoram4,         // Tagoram with 4 circular antennas
  kRfIdraw4,         // RF-IDraw with 4 circular antennas (2 arrays)
};

std::string to_string(System s);

/// Everything a single writing trial needs.
struct TrialConfig {
  System system = System::kPolarDraw;
  sim::SceneConfig scene;
  handwriting::SynthesisConfig synth;
  core::PolarDrawConfig algo;
  std::uint64_t seed = 1;
};

/// Per-stage wall-clock breakdown of one trial, in seconds. The stages
/// partition run_trial: synthesis, scene simulation + RFID inventory,
/// tracking, then scoring + classification.
struct StageTimings {
  double synth_s = 0.0;
  double reader_s = 0.0;
  double track_s = 0.0;
  double classify_s = 0.0;
};

/// Outcome of one trial.
struct TrialResult {
  std::string text;
  std::vector<Vec2> trajectory;       // recovered
  std::vector<Vec2> ground_truth;     // ideal ink polyline
  double procrustes_m = 0.0;          // RMS Procrustes distance (meters)
  std::string recognized;             // classifier output (same length)
  bool all_correct = false;           // recognized == text
  std::size_t report_count = 0;       // raw reads delivered by the reader
  double wall_s = 0.0;                // wall-clock time of this trial
  StageTimings stages;                // wall_s broken down by stage
};

/// Runs one trial end to end. `text` may be a single letter or a word.
TrialResult run_trial(const std::string& text, const TrialConfig& cfg);

/// One entry of a trial batch: the text to write plus its full config
/// (including the trial's own seed).
struct TrialSpec {
  std::string text;
  TrialConfig cfg;
};

/// Seed for trial `index` of a sweep whose config carries `base`: a pure
/// function of (base, index), so trial k draws the same randomness whether
/// it runs first, last, alone, or on any thread. All sweep helpers below
/// derive their per-trial seeds through this.
std::uint64_t trial_seed(std::uint64_t base, std::uint64_t index);

/// Runs every spec (each already carrying its own seed) across
/// `n_threads` workers (<= 0: ThreadPool::default_thread_count(), which
/// reads POLARDRAW_THREADS or the hardware concurrency). Results come back
/// indexed exactly like `specs`, so any aggregation the caller performs in
/// index order is bit-identical at every thread count.
std::vector<TrialResult> run_trials(const std::vector<TrialSpec>& specs,
                                    int n_threads = 0);

/// Convenience: letter-recognition accuracy over `reps` trials per letter
/// for the given letters. Trial seeds are counter-derived from cfg.seed
/// (trial_seed), and the confusion matrix is filled in trial-index order
/// after the parallel batch joins, so accuracy and `cm` are identical for
/// every `n_threads` (<= 0: ThreadPool::default_thread_count()).
double letter_accuracy(const std::string& letters, int reps, TrialConfig cfg,
                       recognition::ConfusionMatrix* cm = nullptr,
                       int n_threads = 0,
                       std::vector<TrialResult>* results = nullptr);

/// Word-recognition accuracy over the 10-word lexicon of the given length
/// (test_word), `reps` trials per word, seeded and parallelized exactly
/// like letter_accuracy. `results` (when non-null) receives the per-trial
/// outcomes in trial-index order (word-major).
double word_accuracy(std::size_t letters, int reps, TrialConfig cfg,
                     std::vector<TrialResult>* results = nullptr,
                     int n_threads = 0);

/// Applies System-appropriate defaults to the scene layout.
void apply_system_layout(TrialConfig& cfg);

/// A deterministic pseudo-random word list (O.E.D. stand-in) of the given
/// letter count; index selects among 10 fixed words per length 2-5.
std::string test_word(std::size_t letters, std::size_t index);

}  // namespace polardraw::eval
