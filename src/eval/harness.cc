#include "eval/harness.h"

#include <algorithm>
#include <array>
#include <chrono>

#include "baselines/rfidraw.h"
#include "baselines/tagoram.h"
#include "common/seed.h"
#include "common/thread_pool.h"
#include "core/polardraw.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recognition/procrustes.h"

namespace polardraw::eval {

std::string to_string(System s) {
  switch (s) {
    case System::kPolarDraw: return "PolarDraw (2-antenna)";
    case System::kPolarDrawNoPol: return "PolarDraw w/o polarization";
    case System::kPolarDrawNoPolPhaseDir:
      return "PolarDraw w/o polarization (+phase dir)";
    case System::kTagoram2: return "Tagoram (2-antenna)";
    case System::kTagoram4: return "Tagoram (4-antenna)";
    case System::kRfIdraw4: return "RF-IDraw (4-antenna)";
  }
  return "unknown";
}

void apply_system_layout(TrialConfig& cfg) {
  switch (cfg.system) {
    case System::kPolarDraw:
    case System::kPolarDrawNoPol:
    case System::kPolarDrawNoPolPhaseDir:
      cfg.scene.layout = sim::RigLayout::kPolarDrawTwoAntenna;
      break;
    case System::kTagoram2:
      cfg.scene.layout = sim::RigLayout::kTagoramTwoAntenna;
      break;
    case System::kTagoram4:
      cfg.scene.layout = sim::RigLayout::kTagoramFourAntenna;
      break;
    case System::kRfIdraw4:
      cfg.scene.layout = sim::RigLayout::kRfIdrawFourAntenna;
      break;
  }
  cfg.algo.use_polarization = cfg.system != System::kPolarDrawNoPol &&
                              cfg.system != System::kPolarDrawNoPolPhaseDir;
  cfg.algo.use_phase_direction =
      cfg.system != System::kPolarDrawNoPol;
  cfg.algo.gamma_rad = cfg.scene.gamma_rad;
  cfg.algo.board_width_m = cfg.scene.board_width_m;
  cfg.algo.board_height_m = cfg.scene.board_height_m;
}

namespace {
double seconds_between(std::chrono::steady_clock::time_point t0,
                       std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

// The ten test words of one length group: word_accuracy's texts and the
// lexicon run_trial judges a word against.
std::vector<std::string> word_group(std::size_t letters) {
  std::vector<std::string> words;
  for (std::size_t i = 0; i < 10; ++i) words.push_back(test_word(letters, i));
  return words;
}

// Runs `reps` trials of each text in turn, trial k seeded with
// trial_seed(cfg.seed, k), so trial k's seed depends only on (cfg.seed, k),
// never on how many trials ran before it or on which thread it lands.
// Returns the share of trials recognized correctly.
double run_sweep(const std::vector<std::string>& texts, int reps,
                 const TrialConfig& cfg, int n_threads,
                 std::vector<TrialResult>& results) {
  std::vector<TrialSpec> specs;
  specs.reserve(texts.size() * static_cast<std::size_t>(std::max(reps, 0)));
  for (const std::string& text : texts) {
    for (int r = 0; r < reps; ++r) {
      TrialSpec spec{text, cfg};
      spec.cfg.seed = trial_seed(cfg.seed, specs.size());
      specs.push_back(std::move(spec));
    }
  }
  results = run_trials(specs, n_threads);
  const auto correct = std::count_if(
      results.begin(), results.end(),
      [](const TrialResult& res) { return res.all_correct; });
  return results.empty() ? 0.0
                         : static_cast<double>(correct) /
                               static_cast<double>(results.size());
}
}  // namespace

TrialResult run_trial(const std::string& text, const TrialConfig& cfg_in) {
  obs::Tracer& tracer = obs::Tracer::global();
  const bool tracing = tracer.enabled();
  static const obs::TraceName synth_name("eval.stage.synth");
  static const obs::TraceName reader_name("eval.stage.reader");
  static const obs::TraceName track_name("eval.stage.track");
  static const obs::TraceName classify_name("eval.stage.classify");

  // polarlint-allow(R7): stage-timing measurement only; never feeds the decode.
  const auto trial_start = std::chrono::steady_clock::now();
  TrialConfig cfg = cfg_in;
  apply_system_layout(cfg);
  cfg.scene.seed = cfg.seed;

  TrialResult out;
  out.text = text;

  // --- Synthesize the writing and run the reader -------------------------
  sim::Scene scene(cfg.scene);
  Rng rng(cfg.seed * 7919 + 13);
  // One clock read closes a stage and opens the next; the StageTimings
  // slot and the tracer's 'X' event share it, so tracing adds no reads.
  // polarlint-allow(R7): stage-timing measurement only; never feeds the decode.
  auto stage_start = std::chrono::steady_clock::now();
  const auto close_stage = [&](double& slot, const obs::TraceName& name) {
    // polarlint-allow(R7): stage timing only; never feeds the decode.
    const auto stage_end = std::chrono::steady_clock::now();
    slot = seconds_between(stage_start, stage_end);
    if (tracing) tracer.complete(name.id(), stage_start, stage_end);
    stage_start = stage_end;
  };
  const auto trace = handwriting::synthesize(text, cfg.synth, rng);
  close_stage(out.stages.synth_s, synth_name);
  const auto reports = scene.run(trace);
  close_stage(out.stages.reader_s, reader_name);
  out.report_count = reports.size();
  out.ground_truth = handwriting::flatten_strokes(trace.ground_truth);

  // --- Track ---------------------------------------------------------------
  // polarlint-allow(R7): stage-timing measurement only; never feeds the decode.
  stage_start = std::chrono::steady_clock::now();
  const core::PhaseCalibration cal{scene.reader().port_phase_offsets(), {}};
  // The baselines decode on PolarDraw's board grid, window, speed limit,
  // beam width and wavelength.
  const baselines::GridConfig grid{.board_width_m = cfg.scene.board_width_m,
                                   .board_height_m = cfg.scene.board_height_m,
                                   .block_m = cfg.algo.block_m,
                                   .vmax_mps = cfg.algo.vmax_mps,
                                   .window_s = cfg.algo.window_s,
                                   .beam_width = cfg.algo.beam_width,
                                   .wavelength_m = cfg.algo.wavelength_m};
  switch (cfg.system) {
    case System::kPolarDraw:
    case System::kPolarDrawNoPol:
    case System::kPolarDrawNoPolPhaseDir: {
      const auto apos = scene.antenna_board_positions();
      // Antennas sit above the board; the tracker needs their board-plane
      // positions and the standoff that lifts them off the writing plane.
      core::PolarDraw tracker(cfg.algo, apos[0], apos[1],
                              scene.antennas()[0].position.z);
      out.trajectory = tracker.track(reports, &cal).trajectory;
      break;
    }
    case System::kTagoram2:
    case System::kTagoram4: {
      const baselines::TagoramTracker tracker(grid, scene.antennas());
      out.trajectory = tracker.track(reports);
      break;
    }
    case System::kRfIdraw4: {
      const baselines::RfIdrawTracker tracker(
          grid, scene.antennas(), {{0, 1}, {2, 3}},
          scene.reader().port_phase_offsets());
      out.trajectory = tracker.track(reports);
      break;
    }
  }
  close_stage(out.stages.track_s, track_name);

  // --- Score ----------------------------------------------------------------
  if (!out.trajectory.empty() && out.ground_truth.size() >= 2) {
    out.procrustes_m =
        recognition::procrustes_distance(out.ground_truth, out.trajectory);
  }
  static const recognition::LetterClassifier classifier;
  std::string letters;
  for (char c : text) {
    if (handwriting::has_glyph(c)) letters.push_back(c);
  }
  if (letters.size() <= 1) {
    out.recognized = std::string(
        1, classifier.classify(out.trajectory).letter);
    out.all_correct =
        !letters.empty() &&
        std::toupper(static_cast<unsigned char>(letters[0])) ==
            out.recognized[0];
  } else {
    // Words are judged with the length-group lexicon, mirroring the
    // paper's dictionary-backed recognizer over O.E.D. test words.
    out.recognized = classifier.classify_word_lexicon(
        out.trajectory, word_group(letters.size()));
    std::string upper;
    for (char c : letters)
      upper.push_back(
          static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    out.all_correct = out.recognized == upper;
  }
  close_stage(out.stages.classify_s, classify_name);
  out.wall_s = seconds_between(trial_start, stage_start);
  static const obs::Histogram trial_hist("eval.trial");
  static const obs::Counter trials_counter("eval.trials");
  trial_hist.observe(out.wall_s);
  trials_counter.add();
  return out;
}

std::uint64_t trial_seed(std::uint64_t base, std::uint64_t index) {
  return splitmix64(base, index);
}

std::vector<TrialResult> run_trials(const std::vector<TrialSpec>& specs,
                                    int n_threads) {
  if (n_threads <= 0) n_threads = ThreadPool::default_thread_count();
  std::vector<TrialResult> results(specs.size());
  ThreadPool pool(n_threads);
  pool.parallel_for(specs.size(), [&](std::size_t i) {
    static const obs::SpanSite trial_site("eval.run_trial");
    static const obs::TraceName arg_trial("trial");
    obs::ScopedSpan span(trial_site);
    span.arg(arg_trial, static_cast<double>(i));
    results[i] = run_trial(specs[i].text, specs[i].cfg);
  });
  return results;
}

double letter_accuracy(const std::string& letters, int reps, TrialConfig cfg,
                       recognition::ConfusionMatrix* cm, int n_threads,
                       std::vector<TrialResult>* results_out) {
  std::vector<std::string> texts;
  for (char c : letters) texts.emplace_back(1, c);
  std::vector<TrialResult> results;
  const double acc = run_sweep(texts, reps, cfg, n_threads, results);
  // Aggregate strictly in trial-index order after the join so the
  // confusion matrix is bit-identical at every thread count.
  for (const TrialResult& res : results) {
    if (cm != nullptr && !res.recognized.empty()) {
      cm->record(res.text[0], res.recognized[0]);
    }
  }
  if (results_out != nullptr) *results_out = std::move(results);
  return acc;
}

double word_accuracy(std::size_t letters, int reps, TrialConfig cfg,
                     std::vector<TrialResult>* results_out, int n_threads) {
  std::vector<TrialResult> results;
  const double acc =
      run_sweep(word_group(letters), reps, cfg, n_threads, results);
  if (results_out != nullptr) *results_out = std::move(results);
  return acc;
}

std::string test_word(std::size_t letters, std::size_t index) {
  // Ten common dictionary words per length bucket (an O.E.D. stand-in).
  static const std::array<std::array<const char*, 10>, 4> kWords = {{
      {"AT", "BE", "DO", "GO", "IF", "IN", "IT", "ME", "ON", "UP"},
      {"ACT", "BIG", "CAR", "DOG", "EAT", "FUN", "HAT", "JOB", "MAP", "SUN"},
      {"BLUE", "CARD", "DESK", "FARM", "GOLD", "HAND", "LAMP", "MOON",
       "RAIN", "WIND"},
      {"APPLE", "BREAD", "CHAIR", "DREAM", "EARTH", "GREEN", "HOUSE",
       "LIGHT", "PLANT", "WATER"},
  }};
  if (letters < 2) letters = 2;
  if (letters > 5) letters = 5;
  return kWords[letters - 2][index % 10];
}

}  // namespace polardraw::eval
