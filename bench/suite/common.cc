#include <sys/resource.h>

#include <cmath>
#include <ctime>
#include <cstring>
#include <fstream>
#include <memory>

#include "common/seed.h"
#include "common/stats.h"
#include "core/decode_testbed.h"
#include "core/phase_field.h"
#include "core/streaming_decoder.h"
#include "suite.h"

namespace polarbench {

using polardraw::Vec2;

double pct(const std::vector<double>& values, double p) {
  return values.empty() ? 0.0 : polardraw::percentile(values, p);
}

namespace {
double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

StealClock StealClock::now() {
  // First line: cpu user nice system idle iowait irq softirq steal ...
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  StealClock c;
  for (double& x : v) {
    if (!(in >> x)) return c;
    c.total += x;
  }
  c.steal = v[7];
  return c;
}

double StealClock::fraction_since(const StealClock& since) const {
  return ratio(steal - since.steal, total - since.total);
}

std::uint64_t pen_seed(std::uint64_t seed, std::uint64_t pen) {
  return polardraw::splitmix64(seed, pen);
}

bool all_finite(const std::vector<Vec2>& traj) {
  for (const Vec2& p : traj) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) return false;
  }
  return true;
}

bool bit_identical(const std::vector<Vec2>& a, const std::vector<Vec2>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(Vec2)) == 0);
}

void trace_span(const char* name, Clock::time_point begin,
                Clock::time_point end) {
  auto& tracer = polardraw::obs::Tracer::global();
  if (tracer.enabled()) tracer.complete(tracer.name_id(name), begin, end);
}

double span_total_s(const polardraw::obs::Snapshot& snap, const char* name) {
  const auto* h = snap.histogram(name);
  return h != nullptr ? h->sum : 0.0;
}

polardraw::core::PolarDrawConfig server_config(bool smoke) {
  polardraw::core::PolarDrawConfig cfg;
  if (smoke) {
    cfg.board_width_m = 0.3;
    cfg.board_height_m = 0.2;
    cfg.block_m = 0.005;
    cfg.beam_width = 150;
  }
  return cfg;
}

void Units::add(double unit_items, double unit_cpu_s, double unit_wall_s,
                const std::vector<double>& unit_latency_ms) {
  ++count;
  items += unit_items;
  cpu_s += unit_cpu_s;
  wall_s += unit_wall_s;
  latency_ms.insert(latency_ms.end(), unit_latency_ms.begin(), unit_latency_ms.end());
}

void Units::report(Result& r) const {
  r.set("throughput_per_cpu_s", ratio(items, cpu_s));
  r.note("units", static_cast<double>(count), "units");
  r.note("latency_samples", static_cast<double>(latency_ms.size()), "samples");
}

ObsPause::ObsPause()
    : metrics_on_(polardraw::obs::Registry::global().enabled()),
      trace_on_(polardraw::obs::Tracer::global().enabled()) {
  polardraw::obs::Registry::global().set_enabled(false);
  polardraw::obs::Tracer::global().set_enabled(false);
}

ObsPause::~ObsPause() {
  polardraw::obs::Registry::global().set_enabled(metrics_on_);
  polardraw::obs::Tracer::global().set_enabled(trace_on_);
}

double phase_field_build_ms(const polardraw::core::PolarDrawConfig& cfg,
                            Vec2 a1, Vec2 a2, double antenna_z, bool smoke) {
  std::unique_ptr<polardraw::core::PhaseField> field;
  return 1e3 * median_setup_s(smoke ? 3 : 15, field, [&] {
           return std::make_unique<polardraw::core::PhaseField>(cfg, a1, a2,
                                                                antenna_z);
         });
}

double decode_windows_per_s_1t(bool smoke, std::uint64_t seed) {
  const auto cfg = server_config(smoke);
  const int windows = smoke ? 40 : 400;
  std::vector<polardraw::core::DecodeTestbed> pens;
  for (std::uint64_t p = 0; p < 8; ++p) {
    pens.push_back(polardraw::core::make_decode_testbed(cfg, windows,
                                                        pen_seed(seed, p)));
  }
  const auto field = std::make_shared<const polardraw::core::PhaseField>(
      cfg, pens[0].a1, pens[0].a2, pens[0].antenna_z);
  std::size_t positions = 0;
  const double c0 = thread_cpu_s();
  for (const auto& tb : pens) {
    polardraw::core::StreamingDecoder dec(cfg, tb.a1, tb.a2, tb.antenna_z, {},
                                          field, &tb.start);
    std::vector<Vec2> out;
    for (const auto& o : tb.obs) {
      dec.push(o);
      dec.poll(out);
    }
    dec.finish(out);
    positions += out.size();
  }
  const double cpu_s = thread_cpu_s() - c0;
  if (positions == 0) return 0.0;
  return static_cast<double>(8 * windows) / cpu_s;
}

}  // namespace polarbench
