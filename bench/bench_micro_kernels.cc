// Micro-benchmarks of the computational kernels (google-benchmark only,
// no experiment table): channel evaluation, pre-processing, Viterbi
// decoding, Procrustes/DTW scoring, and the stroke synthesizer. These
// quantify the real-time claim (Viterbi "can be computed in real-time
// even with an embedded mini PC", section 3.5).
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "channel/multipath.h"
#include "common/angles.h"
#include "core/polardraw.h"
#include "eval/harness.h"
#include "handwriting/synthesizer.h"
#include "recognition/dtw.h"
#include "recognition/procrustes.h"
#include "sim/scene.h"

using namespace polardraw;

namespace {

/// A cached full trial's worth of raw reports + geometry.
struct Fixture {
  rfid::TagReportStream reports;
  core::PhaseCalibration cal;
  Vec2 a1, a2;
  core::PolarDrawConfig algo;
  std::vector<Vec2> truth;
  std::vector<Vec2> recovered;

  static const Fixture& get() {
    static const Fixture f = [] {
      Fixture fx;
      eval::TrialConfig cfg;
      cfg.system = eval::System::kPolarDraw;
      cfg.seed = 11;
      eval::apply_system_layout(cfg);
      cfg.scene.seed = cfg.seed;
      sim::Scene scene(cfg.scene);
      Rng rng(cfg.seed * 7919 + 13);
      const auto trace = handwriting::synthesize("B", cfg.synth, rng);
      fx.reports = scene.run(trace);
      fx.cal.port_offsets_rad = scene.reader().port_phase_offsets();
      const auto apos = scene.antenna_board_positions();
      fx.a1 = apos[0];
      fx.a2 = apos[1];
      fx.algo = cfg.algo;
      fx.truth = handwriting::flatten_strokes(trace.ground_truth);
      core::PolarDraw tracker(fx.algo, fx.a1, fx.a2, 0.12);
      fx.recovered = tracker.track(fx.reports, &fx.cal).trajectory;
      return fx;
    }();
    return f;
  }
};

}  // namespace

static void BM_ChannelEvaluate(benchmark::State& state) {
  const auto channel = channel::make_office_channel(5);
  em::ReaderAntenna ant = em::make_linear_antenna(Vec3{0.2, 1.25, 0.12}, 1.8);
  ant.boresight = Vec3{0.0, -1.0, 0.0};
  em::Tag tag;
  tag.position = Vec3{0.5, 0.25, 0.0};
  tag.dipole_axis = Vec3{0.3, 0.2, 0.93};
  em::TxConfig tx;
  double t = 0.0;
  for (auto _ : state) {
    t += 0.001;
    benchmark::DoNotOptimize(channel.evaluate(ant, tag, tx, t).response);
  }
}
BENCHMARK(BM_ChannelEvaluate);

static void BM_Preprocess(benchmark::State& state) {
  const auto& fx = Fixture::get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::preprocess(fx.reports, fx.algo, &fx.cal).size());
  }
}
BENCHMARK(BM_Preprocess);

static void BM_FullTrack(benchmark::State& state) {
  const auto& fx = Fixture::get();
  core::PolarDraw tracker(fx.algo, fx.a1, fx.a2, 0.12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tracker.track(fx.reports, &fx.cal).trajectory.size());
  }
  // Real-time check: one letter spans several seconds of writing.
  state.counters["windows"] = static_cast<double>(
      core::preprocess(fx.reports, fx.algo, &fx.cal).size());
}
BENCHMARK(BM_FullTrack);

static void BM_ViterbiBeamWidth(benchmark::State& state) {
  const auto& fx = Fixture::get();
  auto algo = fx.algo;
  algo.beam_width = static_cast<std::size_t>(state.range(0));
  core::PolarDraw tracker(algo, fx.a1, fx.a2, 0.12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tracker.track(fx.reports, &fx.cal).trajectory.size());
  }
}
BENCHMARK(BM_ViterbiBeamWidth)->Arg(100)->Arg(300)->Arg(600)->Arg(1200);

static void BM_Procrustes(benchmark::State& state) {
  const auto& fx = Fixture::get();
  const auto a = recognition::resample_by_arclength(fx.truth, 64);
  const auto b = recognition::resample_by_arclength(fx.recovered, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(recognition::procrustes(a, b).rms_distance);
  }
}
BENCHMARK(BM_Procrustes);

static void BM_Dtw(benchmark::State& state) {
  const auto& fx = Fixture::get();
  const auto a = recognition::resample_by_arclength(fx.truth, 64);
  const auto b = recognition::resample_by_arclength(fx.recovered, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(recognition::dtw_distance(a, b));
  }
}
BENCHMARK(BM_Dtw);

static void BM_ClassifyLetter(benchmark::State& state) {
  const auto& fx = Fixture::get();
  const recognition::LetterClassifier cls;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cls.classify(fx.recovered).letter);
  }
}
BENCHMARK(BM_ClassifyLetter);

static void BM_SynthesizeLetter(benchmark::State& state) {
  handwriting::SynthesisConfig cfg;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(++seed);
    benchmark::DoNotOptimize(
        handwriting::synthesize("W", cfg, rng).samples.size());
  }
}
BENCHMARK(BM_SynthesizeLetter);

int main(int argc, char** argv) {
  const bench::Session session("micro_kernels");
  return session.finish(argc, argv);
}
