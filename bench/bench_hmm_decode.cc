// Decode hot-path benchmark: windows/sec and wall time per trajectory
// length for the HMM Viterbi decoder, on seeded synthetic observation
// streams (core/decode_testbed.h) over the default board and config.
//
// PD_BENCH_SMOKE=1 registers a tiny variant (small grid, few windows)
// for sanitizer CI: same code paths, seconds instead of minutes under
// ASan+UBSan.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "bench_common.h"
#include "core/decode_testbed.h"
#include "core/hmm_tracker.h"
#include "core/phase_field.h"

using namespace polardraw;
using namespace polardraw::core;

namespace {

PolarDrawConfig bench_config(bool smoke) {
  PolarDrawConfig cfg;  // default board/config is the headline number
  if (smoke) {
    cfg.board_width_m = 0.3;
    cfg.board_height_m = 0.2;
    cfg.block_m = 0.005;
    cfg.beam_width = 150;
  }
  return cfg;
}

void add_window_rate(benchmark::State& state, int n_windows) {
  state.counters["windows/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * n_windows,
      benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations() * n_windows);
}

void BM_HmmDecode(benchmark::State& state, bool smoke) {
  const int n = static_cast<int>(state.range(0));
  const auto cfg = bench_config(smoke);
  const auto tb = make_decode_testbed(cfg, n, 42);
  const HmmTracker hmm(cfg, tb.a1, tb.a2, tb.antenna_z);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmm.decode(tb.obs, &tb.start).size());
  }
  add_window_rate(state, n);
}

void BM_HmmTrackerConstruct(benchmark::State& state, bool smoke) {
  // Per-track setup cost (includes building the phase-field cache).
  const auto cfg = bench_config(smoke);
  const auto tb = make_decode_testbed(cfg, 1, 42);
  for (auto _ : state) {
    const HmmTracker hmm(cfg, tb.a1, tb.a2, tb.antenna_z);
    benchmark::DoNotOptimize(hmm.cols());
  }
}

// Headline experiment for the JSON export: a fixed-rep decode loop on the
// seeded testbed, independent of google-benchmark (which JSON-only mode
// skips), recording decode throughput in windows/s (gated by benchdiff's
// throughput tolerance).
void run_experiment(bool smoke) {
  const int n = smoke ? 16 : 200;
  const int reps = (smoke ? 3 : 10) * bench::reps_scale();
  const auto cfg = bench_config(smoke);
  const auto tb = make_decode_testbed(cfg, n, 42);
  const HmmTracker hmm(cfg, tb.a1, tb.a2, tb.antenna_z);
  std::size_t sink = 0;
  const bench::Stopwatch watch;
  for (int r = 0; r < reps; ++r) {
    sink += hmm.decode(tb.obs, &tb.start).size();
  }
  const double elapsed = watch.seconds();
  const double windows_per_s =
      elapsed > 0.0 ? static_cast<double>(reps) * n / elapsed : 0.0;
  std::cout << "HMM decode: " << reps << " x " << n << " windows (" << sink
            << " states) in " << fmt(elapsed, 3)
            << " s = " << fmt(windows_per_s, 0) << " windows/s.\n";
  bench::record_metric("windows", static_cast<double>(n));
  bench::record_metric("decode_reps", reps);
  bench::record_metric("windows_per_s", windows_per_s);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Session session("hmm_decode");
  const bool smoke = bench::smoke_mode();
  run_experiment(smoke);
  if (bench::json_only_mode()) {
    return session.write_json() ? 0 : 1;
  }
  const std::vector<std::int64_t> lengths =
      smoke ? std::vector<std::int64_t>{16}
            : std::vector<std::int64_t>{50, 200, 800};
  for (const auto n : lengths) {
    benchmark::RegisterBenchmark(
        "BM_HmmDecode",
        [smoke](benchmark::State& s) { BM_HmmDecode(s, smoke); })
        ->Arg(n)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark(
      "BM_HmmTrackerConstruct",
      [smoke](benchmark::State& s) { BM_HmmTrackerConstruct(s, smoke); })
      ->Unit(benchmark::kMillisecond);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return session.write_json() ? 0 : 1;
}
