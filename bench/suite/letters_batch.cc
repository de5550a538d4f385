// letters_batch: the researcher's and batch-API path. eval::run_trials
// over the alphabet, 26 letters x 30 reps of System::kPolarDraw in the
// fig13 configuration, on kWorkers threads. Each trial synthesizes the
// letter, simulates the reader, preprocesses, runs the motion front end,
// builds its own PhaseField, decodes at full lag and classifies -- every
// single-pen layer on realistic reads, and no server.
//
// The trial list runs in chunks; once every trial has run, chunks repeat
// until the measured interval is over and must reproduce the first pass
// bit for bit. Accuracy figures come from the first pass, so they depend
// only on the seed.
#include <cmath>
#include <memory>
#include <string>

#include "core/phase_field.h"
#include "eval/harness.h"
#include "recognition/classifier.h"
#include "suite.h"

namespace polarbench {

namespace {

namespace eval = polardraw::eval;

bool same_outcome(const eval::TrialResult& a, const eval::TrialResult& b) {
  return a.recognized == b.recognized && bit_identical(a.trajectory, b.trajectory);
}

}  // namespace

Result letters_batch(const Options& opts) {
  Result r;
  const std::string letters =
      opts.smoke ? "ACEMZ" : "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
  const int reps = opts.smoke ? 1 : 30;
  eval::TrialConfig cfg;  // fig13: PolarDraw, two antennas, default scene
  cfg.system = eval::System::kPolarDraw;
  cfg.seed = opts.seed;
  // Rep-major order, so every chunk of 2 reps holds the same letter mix.
  std::vector<eval::TrialSpec> specs;
  for (int k = 0; k < reps; ++k) {
    for (const char c : letters) {
      eval::TrialSpec spec{std::string(1, c), cfg};
      spec.cfg.seed = eval::trial_seed(cfg.seed, specs.size());
      specs.push_back(std::move(spec));
    }
  }
  const std::size_t chunk = opts.smoke ? specs.size() : 2 * letters.size();

  // Set-up: the letter templates every classification needs.
  std::unique_ptr<polardraw::recognition::LetterClassifier> classifier;
  r.set("setup_s", median_setup_s(opts.smoke ? 3 : 31, classifier, [] {
          return std::make_unique<polardraw::recognition::LetterClassifier>();
        }));

  // Warm-up, untimed and unrecorded: the harness's static classifier,
  // first-touch pages and the first pool spin-up.
  {
    const ObsPause pause;
    eval::TrialSpec warm{"A", cfg};
    warm.cfg.seed = eval::trial_seed(cfg.seed, specs.size());
    eval::run_trials({warm}, kWorkers);
  }

  std::vector<eval::TrialResult> first;
  Units units;
  double batch_s = 0.0, trial_wall_s = 0.0;
  double synth_s = 0.0, reader_s = 0.0, track_s = 0.0, classify_s = 0.0;
  std::size_t trials = 0, next = 0;
  double last_s = 0.0;
  const auto t0 = Clock::now();
  while (first.size() < specs.size() ||
         another_unit(seconds_between(t0, Clock::now()), last_s, opts.seconds)) {
    const std::vector<eval::TrialSpec> batch(
        specs.begin() + static_cast<std::ptrdiff_t>(next),
        specs.begin() + static_cast<std::ptrdiff_t>(
                            std::min(specs.size(), next + chunk)));
    const double c0 = process_cpu_s();
    const auto b0 = Clock::now();
    auto results = eval::run_trials(batch, kWorkers);
    const auto b1 = Clock::now();
    const double chunk_cpu_s = process_cpu_s() - c0;
    trace_span("bench.eval.run_trials", b0, b1);
    last_s = seconds_between(b0, b1);
    batch_s += last_s;
    std::vector<double> chunk_ms;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const eval::TrialResult& res = results[i];
      ++trials;
      chunk_ms.push_back(1e3 * (res.stages.track_s + res.stages.classify_s));
      trial_wall_s += res.wall_s;
      synth_s += res.stages.synth_s;
      reader_s += res.stages.reader_s;
      track_s += res.stages.track_s;
      classify_s += res.stages.classify_s;
      ++r.attempted;
      if (res.trajectory.empty() || !all_finite(res.trajectory)) {
        ++r.failed;
        r.fail("trial " + std::to_string(next + i) + " (" + res.text +
               "): empty or non-finite trajectory");
      }
      if (first.size() < specs.size()) {
        first.push_back(res);
      } else if (!same_outcome(res, first[next + i])) {
        ++r.failed;
        r.fail("trial " + std::to_string(next + i) +
               " did not reproduce its first run");
      }
    }
    units.add(static_cast<double>(results.size()), chunk_cpu_s, last_s, chunk_ms);
    next = next + batch.size() == specs.size() ? 0 : next + batch.size();
  }

  std::size_t correct = 0;
  std::vector<double> procrustes_mm;
  for (const auto& res : first) {
    if (res.all_correct) ++correct;
    procrustes_mm.push_back(1e3 * res.procrustes_m);
  }
  units.report(r);
  r.note("trials", static_cast<double>(trials), "trials");
  r.note("trials_per_s", units.wall_rate(), "trials/s");
  r.note("recognize_latency_p50_ms", units.latency(50.0), "ms");
  r.note("recognize_latency_p99_ms", units.latency(99.0), "ms");
  r.note("letter_accuracy",
         static_cast<double>(correct) / static_cast<double>(first.size()),
         "fraction");
  r.note("procrustes_p50_mm", pct(procrustes_mm, 50.0), "mm");

  if (opts.traced) {
    const auto snap = polardraw::obs::Registry::global().snapshot();
    const double decode_s = span_total_s(snap, "core.hmm_decode");
    const double preprocess_s = span_total_s(snap, "core.preprocess");
    double field_ms = 0.0;
    {
      const ObsPause pause;
      eval::TrialConfig laid = cfg;
      eval::apply_system_layout(laid);
      const polardraw::sim::Scene scene(laid.scene);
      const auto apos = scene.antenna_board_positions();
      // run_trial hands PolarDraw the antennas' board positions and a
      // 0.12 m standoff.
      field_ms = phase_field_build_ms(laid.algo, apos[0], apos[1], 0.12,
                                      opts.smoke);
    }
    const auto c = [&](const char* name) {
      return static_cast<double>(snap.counter(name));
    };
    r.set("decode.phase_field_build_ms", field_ms);
    r.set("decode.trial_share", ratio(decode_s, trial_wall_s));
    r.set("decode.batch_windows_per_s", ratio(c("hmm.windows"), decode_s));
    r.set("preprocess.trial_share", ratio(preprocess_s, trial_wall_s));
    r.set("motion.trial_share",
          ratio(track_s - preprocess_s - decode_s -
                    static_cast<double>(trials) * field_ms / 1e3,
                trial_wall_s));
    r.set("motion.rotational_fraction",
          ratio(c("rotation.steps"), c("preprocess.windows")));
    r.set("handwriting.trial_share", ratio(synth_s, trial_wall_s));
    r.set("recognition.trial_share", ratio(classify_s, trial_wall_s));
    r.set("rfid.share", ratio(reader_s, trial_wall_s));
    r.set("eval.pool_efficiency",
          ratio(trial_wall_s, static_cast<double>(kWorkers) * batch_s));
  }
  return r;
}

}  // namespace polarbench
