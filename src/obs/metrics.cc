#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>

#include "common/annotations.h"

namespace polardraw::obs {

namespace {

// ---------------------------------------------------------------------------
// Shard storage (DESIGN.md sections 11 and 17).
//
// Each thread accumulates into its own LocalShard, guarded by a mutex of
// its own. Only the owning thread writes, so the lock is uncontended except
// while snapshot(), reset() or the thread-exit merge reads or rewrites the
// shard; that is what makes every snapshot exact per shard while
// instrumented work is in flight. Retired and merged data use the same
// layout, so there is one merge routine.
//
// Lock order: registry mutex, then shard mutex. A writer never holds its
// shard mutex while it takes the registry mutex.
// ---------------------------------------------------------------------------

struct LocalShard {
  std::vector<std::uint64_t> counters;
  std::vector<double> gauges;  // NaN-free: valid iff gauge_set
  std::vector<char> gauge_set;
  std::vector<HistogramData> hists;
};

/// One thread's live accumulators.
struct Shard {
  pd::Mutex mu;
  LocalShard data PD_GUARDED_BY(mu);
  // Owning-thread data, deliberately outside the capability: the
  // registered bounds of each histogram this thread has observed, cached
  // on first use. They point into Registry::Impl::hist_bounds, a deque
  // whose elements never move and never change after registration.
  std::vector<const std::vector<double>*> bounds;
};

void merge_into(LocalShard& into, const LocalShard& from) {
  if (into.counters.size() < from.counters.size()) {
    into.counters.resize(from.counters.size(), 0);
  }
  for (std::size_t i = 0; i < from.counters.size(); ++i) {
    into.counters[i] += from.counters[i];
  }
  if (into.gauges.size() < from.gauges.size()) {
    into.gauges.resize(from.gauges.size(), 0.0);
    into.gauge_set.resize(from.gauge_set.size(), 0);
  }
  for (std::size_t i = 0; i < from.gauges.size(); ++i) {
    if (!from.gauge_set[i]) continue;
    into.gauges[i] = into.gauge_set[i] ? std::max(into.gauges[i], from.gauges[i])
                                       : from.gauges[i];
    into.gauge_set[i] = 1;
  }
  if (into.hists.size() < from.hists.size()) into.hists.resize(from.hists.size());
  for (std::size_t i = 0; i < from.hists.size(); ++i) {
    into.hists[i].merge(from.hists[i]);
  }
}

}  // namespace

struct Registry::Impl {
  mutable pd::Mutex mu;
  std::atomic<bool> enabled{false};

  // Name -> id maps (ids count up from 0 per kind) and histogram bounds
  // by id.
  std::map<std::string, int> counter_ids PD_GUARDED_BY(mu);
  std::map<std::string, int> gauge_ids PD_GUARDED_BY(mu);
  std::map<std::string, int> hist_ids PD_GUARDED_BY(mu);
  std::deque<std::vector<double>> hist_bounds PD_GUARDED_BY(mu);

  // Live per-thread shards, in registration order, plus the merged data
  // of exited threads.
  std::vector<Shard*> live PD_GUARDED_BY(mu);
  LocalShard retired PD_GUARDED_BY(mu);

  Shard& local_shard();
  void retire(Shard* s) {
    pd::MutexLock lock(mu);
    {
      pd::MutexLock shard_lock(s->mu);
      merge_into(retired, s->data);
    }
    live.erase(std::remove(live.begin(), live.end(), s), live.end());
  }
};

namespace {

/// TLS holder: owns this thread's shard and flushes it into the retired
/// accumulator at thread exit.
struct TlsShard {
  Registry::Impl* owner = nullptr;
  std::unique_ptr<Shard> shard;
  ~TlsShard() {
    if (shard != nullptr) owner->retire(shard.get());
  }
};

thread_local TlsShard tls_shard;

}  // namespace

Shard& Registry::Impl::local_shard() {
  if (tls_shard.shard == nullptr) {
    auto fresh = std::make_unique<Shard>();
    {
      pd::MutexLock lock(mu);
      live.push_back(fresh.get());
    }
    tls_shard.owner = this;
    tls_shard.shard = std::move(fresh);
  }
  return *tls_shard.shard;
}

Registry::Registry() : impl_(new Impl) {}

// The global registry is intentionally immortal (never destroyed), so
// worker threads exiting at process teardown can always flush their
// shards.
Registry& Registry::global() {
  static Registry* g = [] {
    auto* r = new Registry();
    if (const char* env = std::getenv("POLARDRAW_METRICS")) {
      r->set_enabled(std::string_view(env) != "0");
    }
    return r;
  }();
  return *g;
}

int Registry::counter_id(const std::string& name) {
  pd::MutexLock lock(impl_->mu);
  auto& ids = impl_->counter_ids;
  return ids.try_emplace(name, static_cast<int>(ids.size())).first->second;
}

int Registry::gauge_id(const std::string& name) {
  pd::MutexLock lock(impl_->mu);
  auto& ids = impl_->gauge_ids;
  return ids.try_emplace(name, static_cast<int>(ids.size())).first->second;
}

int Registry::histogram_id(const std::string& name,
                           const std::vector<double>& bounds) {
  pd::MutexLock lock(impl_->mu);
  auto& ids = impl_->hist_ids;
  const auto [it, inserted] =
      ids.try_emplace(name, static_cast<int>(ids.size()));
  if (inserted) {
    std::vector<double> sorted = bounds;
    std::sort(sorted.begin(), sorted.end());
    impl_->hist_bounds.push_back(std::move(sorted));
  }
  return it->second;
}

void Registry::set_enabled(bool on) {
  impl_->enabled.store(on, std::memory_order_relaxed);
}

bool Registry::enabled() const {
  return impl_->enabled.load(std::memory_order_relaxed);
}

void Registry::counter_add(int id, std::uint64_t n) {
  Shard& s = impl_->local_shard();
  const auto idx = static_cast<std::size_t>(id);
  pd::MutexLock lock(s.mu);
  std::vector<std::uint64_t>& counters = s.data.counters;
  if (idx >= counters.size()) counters.resize(idx + 1, 0);
  counters[idx] += n;
}

void Registry::gauge_max(int id, double v) {
  Shard& s = impl_->local_shard();
  const auto idx = static_cast<std::size_t>(id);
  pd::MutexLock lock(s.mu);
  LocalShard& d = s.data;
  if (idx >= d.gauges.size()) {
    d.gauges.resize(idx + 1, 0.0);
    d.gauge_set.resize(idx + 1, 0);
  }
  d.gauges[idx] = d.gauge_set[idx] ? std::max(d.gauges[idx], v) : v;
  d.gauge_set[idx] = 1;
}

void Registry::histogram_observe(int id, double v) {
  Shard& s = impl_->local_shard();
  const auto idx = static_cast<std::size_t>(id);
  if (idx >= s.bounds.size()) s.bounds.resize(idx + 1, nullptr);
  if (s.bounds[idx] == nullptr) {
    // First observe of this histogram on this thread; the shard mutex is
    // not held yet, which keeps the registry -> shard lock order.
    pd::MutexLock lock(impl_->mu);
    s.bounds[idx] = &impl_->hist_bounds[idx];
  }
  pd::MutexLock lock(s.mu);
  std::vector<HistogramData>& hists = s.data.hists;
  if (idx >= hists.size()) hists.resize(idx + 1);
  hists[idx].observe(*s.bounds[idx], v);
}

Snapshot Registry::snapshot() const {
  pd::MutexLock lock(impl_->mu);
  // Retired data first, then live shards in registration order: a fixed
  // merge order keeps quiescent snapshots bit-identical run to run.
  LocalShard merged;
  merge_into(merged, impl_->retired);
  for (Shard* s : impl_->live) {
    pd::MutexLock shard_lock(s->mu);
    merge_into(merged, s->data);
  }

  Snapshot out;
  // The name tables are sorted maps, so iteration emits names in order.
  for (const auto& [name, id] : impl_->counter_ids) {
    const auto idx = static_cast<std::size_t>(id);
    const std::uint64_t v = idx < merged.counters.size() ? merged.counters[idx] : 0;
    out.counters.emplace_back(name, v);
  }
  for (const auto& [name, id] : impl_->gauge_ids) {
    const auto idx = static_cast<std::size_t>(id);
    const bool set = idx < merged.gauge_set.size() && merged.gauge_set[idx];
    out.gauges.emplace_back(name, set ? merged.gauges[idx] : 0.0);
  }
  for (const auto& [name, id] : impl_->hist_ids) {
    const auto idx = static_cast<std::size_t>(id);
    HistogramSnapshot h;
    h.bounds = impl_->hist_bounds[idx];
    h.counts.assign(h.bounds.size() + 1, 0);
    if (idx < merged.hists.size()) h.merge(merged.hists[idx]);
    out.histograms.emplace_back(name, std::move(h));
  }
  return out;
}

void Registry::reset() {
  pd::MutexLock lock(impl_->mu);
  impl_->retired = LocalShard{};
  for (Shard* s : impl_->live) {
    pd::MutexLock shard_lock(s->mu);
    s->data = LocalShard{};
  }
}

void HistogramData::observe(const std::vector<double>& bounds, double v) {
  if (counts.empty()) counts.assign(bounds.size() + 1, 0);
  ++counts[static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin())];
  min = count == 0 ? v : std::min(min, v);
  max = count == 0 ? v : std::max(max, v);
  ++count;
  sum += v;
}

void HistogramData::merge(const HistogramData& from) {
  if (from.count == 0) return;
  if (counts.empty()) counts.assign(from.counts.size(), 0);
  for (std::size_t b = 0; b < from.counts.size(); ++b) {
    counts[b] += from.counts[b];
  }
  min = count == 0 ? from.min : std::min(min, from.min);
  max = count == 0 ? from.max : std::max(max, from.max);
  count += from.count;
  sum += from.sum;
}

double HistogramSnapshot::percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const std::uint64_t next = cum + counts[b];
    if (static_cast<double>(next) >= target && counts[b] > 0) {
      if (b == counts.size() - 1) return max;  // overflow bucket
      const double hi = bounds[b];
      // Lower edge: previous bound, or the observed min for the first
      // populated bucket (keeps tiny samples from reporting bucket edges
      // far below any observation).
      double lo = b > 0 ? bounds[b - 1] : std::min(min, hi);
      lo = std::max(lo, min);
      const double frac =
          (target - static_cast<double>(cum)) / static_cast<double>(counts[b]);
      return lo + (std::min(hi, max) - lo) * std::clamp(frac, 0.0, 1.0);
    }
    cum = next;
  }
  return max;
}

std::uint64_t Snapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

const HistogramSnapshot* Snapshot::histogram(std::string_view name) const {
  for (const auto& [n, h] : histograms) {
    if (n == name) return &h;
  }
  return nullptr;
}

const std::vector<double>& default_time_bounds_s() {
  static const std::vector<double> bounds = [] {
    // 1-2-5 ladder, 1 us .. 50 s.
    std::vector<double> b;
    for (double decade = 1e-6; decade < 1e2; decade *= 10.0) {
      b.push_back(decade);
      b.push_back(2.0 * decade);
      b.push_back(5.0 * decade);
    }
    while (b.back() > 50.0) b.pop_back();
    return b;
  }();
  return bounds;
}

std::vector<double> log_spaced_bounds(double lo, double hi, int per_decade) {
  std::vector<double> b;
  if (!(lo > 0.0) || !(hi > lo) || per_decade < 1) return b;
  // polarlint-allow(R2): geometric bucket-edge spacing, not dB math --
  // these decades are histogram bounds in arbitrary units.
  const double decades = std::log10(hi / lo);
  const auto n = static_cast<int>(
      std::ceil(decades * static_cast<double>(per_decade) - 1e-9));
  b.reserve(static_cast<std::size_t>(n) + 1);
  for (int k = 0; k <= n; ++k) {
    // polarlint-allow(R2): geometric spacing, not a dB conversion.
    b.push_back(lo * std::pow(10.0, static_cast<double>(k) /
                                        static_cast<double>(per_decade)));
  }
  b.back() = hi;  // land exactly on the requested top bound
  return b;
}

}  // namespace polardraw::obs
