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
}  // namespace

TrialResult run_trial(const std::string& text, const TrialConfig& cfg_in) {
  // Stage boundaries are read once and shared between StageTimings and the
  // tracer's per-stage 'X' events, so tracing adds no clock reads here.
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
  // polarlint-allow(R7): stage-timing measurement only; never feeds the decode.
  auto stage_start = std::chrono::steady_clock::now();
  const auto trace = handwriting::synthesize(text, cfg.synth, rng);
  // polarlint-allow(R7): stage-timing measurement only; never feeds the decode.
  auto stage_end = std::chrono::steady_clock::now();
  out.stages.synth_s = seconds_between(stage_start, stage_end);
  if (tracing) tracer.complete(synth_name.id(), stage_start, stage_end);
  stage_start = stage_end;
  const auto reports = scene.run(trace);
  // polarlint-allow(R7): stage-timing measurement only; never feeds the decode.
  stage_end = std::chrono::steady_clock::now();
  out.stages.reader_s = seconds_between(stage_start, stage_end);
  if (tracing) tracer.complete(reader_name.id(), stage_start, stage_end);
  out.report_count = reports.size();
  out.ground_truth = handwriting::flatten_strokes(trace.ground_truth);

  // --- Track ---------------------------------------------------------------
  // polarlint-allow(R7): stage-timing measurement only; never feeds the decode.
  stage_start = std::chrono::steady_clock::now();
  const core::PhaseCalibration cal{scene.reader().port_phase_offsets()};
  switch (cfg.system) {
    case System::kPolarDraw:
    case System::kPolarDrawNoPol:
    case System::kPolarDrawNoPolPhaseDir: {
      const auto apos = scene.antenna_board_positions();
      // Antennas sit above the board; the tracker needs their board-plane
      // positions and the standoff that lifts them off the writing plane.
      core::PolarDraw tracker(cfg.algo, apos[0], apos[1], 0.12);
      out.trajectory = tracker.track(reports, &cal).trajectory;
      break;
    }
    case System::kTagoram2:
    case System::kTagoram4: {
      baselines::TagoramConfig tcfg;
      tcfg.grid.board_width_m = cfg.scene.board_width_m;
      tcfg.grid.board_height_m = cfg.scene.board_height_m;
      tcfg.grid.window_s = cfg.algo.window_s;
      tcfg.grid.vmax_mps = cfg.algo.vmax_mps;
      tcfg.grid.block_m = cfg.algo.block_m;
      tcfg.wavelength_m = cfg.algo.wavelength_m;
      baselines::TagoramTracker tracker(tcfg, scene.antennas());
      out.trajectory = tracker.track(reports);
      break;
    }
    case System::kRfIdraw4: {
      baselines::RfIdrawConfig rcfg;
      rcfg.grid.board_width_m = cfg.scene.board_width_m;
      rcfg.grid.board_height_m = cfg.scene.board_height_m;
      rcfg.grid.window_s = cfg.algo.window_s;
      rcfg.grid.vmax_mps = cfg.algo.vmax_mps;
      rcfg.grid.block_m = cfg.algo.block_m;
      rcfg.wavelength_m = cfg.algo.wavelength_m;
      baselines::RfIdrawTracker tracker(
          rcfg, scene.antennas(), {{0, 1}, {2, 3}},
          scene.reader().port_phase_offsets());
      out.trajectory = tracker.track(reports);
      break;
    }
  }
  // polarlint-allow(R7): stage-timing measurement only; never feeds the decode.
  stage_end = std::chrono::steady_clock::now();
  out.stages.track_s = seconds_between(stage_start, stage_end);
  if (tracing) tracer.complete(track_name.id(), stage_start, stage_end);

  // --- Score ----------------------------------------------------------------
  stage_start = stage_end;
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
    std::vector<std::string> lexicon;
    for (std::size_t i = 0; i < 10; ++i) {
      lexicon.push_back(test_word(letters.size(), i));
    }
    out.recognized = classifier.classify_word_lexicon(out.trajectory, lexicon);
    std::string upper;
    for (char c : letters)
      upper.push_back(
          static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    out.all_correct = out.recognized == upper;
  }
  // polarlint-allow(R7): stage-timing measurement only; never feeds the decode.
  stage_end = std::chrono::steady_clock::now();
  out.stages.classify_s = seconds_between(stage_start, stage_end);
  if (tracing) tracer.complete(classify_name.id(), stage_start, stage_end);
  out.wall_s = seconds_between(trial_start, stage_end);
  static const obs::Histogram trial_hist("eval.trial");
  static const obs::Counter trials_counter("eval.trials");
  trial_hist.observe(out.wall_s);
  trials_counter.add();
  return out;
}

std::uint64_t trial_seed(std::uint64_t base, std::uint64_t index) {
  return splitmix64(base, index);
}

int default_thread_count() { return ThreadPool::default_thread_count(); }

std::vector<TrialResult> run_trials(const std::vector<TrialSpec>& specs,
                                    int n_threads) {
  if (n_threads <= 0) n_threads = default_thread_count();
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
  // Counter-based seeding: trial k's seed depends only on (cfg.seed, k),
  // never on how many trials ran before it or on which thread it lands.
  std::vector<TrialSpec> specs;
  specs.reserve(letters.size() * static_cast<std::size_t>(std::max(reps, 0)));
  for (char c : letters) {
    for (int r = 0; r < reps; ++r) {
      TrialSpec spec{std::string(1, c), cfg};
      spec.cfg.seed = trial_seed(cfg.seed, specs.size());
      specs.push_back(std::move(spec));
    }
  }
  auto results = run_trials(specs, n_threads);
  // Aggregate strictly in trial-index order after the join so the
  // confusion matrix is bit-identical at every thread count.
  int correct = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].all_correct) ++correct;
    if (cm != nullptr && !results[i].recognized.empty()) {
      cm->record(specs[i].text[0], results[i].recognized[0]);
    }
  }
  const double acc =
      results.empty()
          ? 0.0
          : static_cast<double>(correct) / static_cast<double>(results.size());
  if (results_out != nullptr) *results_out = std::move(results);
  return acc;
}

double word_accuracy(std::size_t letters, int reps, TrialConfig cfg,
                     std::vector<TrialResult>* results_out, int n_threads) {
  std::vector<TrialSpec> specs;
  specs.reserve(10 * static_cast<std::size_t>(std::max(reps, 0)));
  for (std::size_t i = 0; i < 10; ++i) {
    for (int r = 0; r < reps; ++r) {
      TrialSpec spec{test_word(letters, i), cfg};
      spec.cfg.seed = trial_seed(cfg.seed, specs.size());
      specs.push_back(std::move(spec));
    }
  }
  auto results = run_trials(specs, n_threads);
  int correct = 0;
  for (const auto& res : results) {
    if (res.all_correct) ++correct;
  }
  const double acc =
      results.empty()
          ? 0.0
          : static_cast<double>(correct) / static_cast<double>(results.size());
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
