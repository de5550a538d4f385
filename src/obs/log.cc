#include "obs/log.h"

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <ostream>

#include "common/annotations.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"

namespace polardraw::obs {

std::string_view log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
  }
  return "info";
}

struct Logger::Impl {
  mutable pd::Mutex mu;
  std::atomic<bool> enabled{false};

  std::ostream* sink PD_GUARDED_BY(mu) = nullptr;
  std::unique_ptr<std::ofstream> owned_sink PD_GUARDED_BY(mu);

  std::atomic<std::uint64_t> emitted{0};
};

Logger::Logger() : impl_(new Impl) {}
Logger::~Logger() { delete impl_; }

Logger& Logger::global() {
  // Immortal for the same reason as Registry::global(): late-exiting
  // threads may log during teardown.
  static Logger* g = [] {
    auto* l = new Logger();
    if (const char* env = std::getenv("POLARDRAW_LOG")) {
      if (*env != '\0') l->set_sink_path(env);
    }
    return l;
  }();
  return *g;
}

void Logger::set_sink(std::ostream* os) {
  pd::MutexLock lock(impl_->mu);
  impl_->owned_sink.reset();
  impl_->sink = os;
  impl_->enabled.store(os != nullptr, std::memory_order_relaxed);
}

void Logger::set_sink_path(std::string_view path) {
  pd::MutexLock lock(impl_->mu);
  if (path == "-" || path == "stderr") {
    impl_->owned_sink.reset();
    impl_->sink = &std::cerr;
  } else {
    auto f = std::make_unique<std::ofstream>(std::string(path),
                                             std::ios::out | std::ios::app);
    impl_->sink = f->is_open() ? f.get() : nullptr;
    impl_->owned_sink = std::move(f);
  }
  impl_->enabled.store(impl_->sink != nullptr, std::memory_order_relaxed);
}

bool Logger::enabled() const {
  return impl_->enabled.load(std::memory_order_relaxed);
}

void Logger::log(LogLevel level, double t_s, std::string_view event,
                 const std::function<void(JsonWriter&)>& fields) {
  if (!enabled()) return;
  static const Counter emitted_counter("log.emitted");
  pd::MutexLock lock(impl_->mu);
  if (impl_->sink == nullptr) return;
  JsonWriter w(*impl_->sink, JsonWriter::Style::kCompact);
  w.begin_object();
  w.kv("t_s", t_s);
  w.kv("level", log_level_name(level));
  w.kv("event", event);
  if (fields) fields(w);
  w.end_object();
  *impl_->sink << '\n';
  impl_->sink->flush();
  impl_->emitted.fetch_add(1, std::memory_order_relaxed);
  emitted_counter.add();
}

std::uint64_t Logger::emitted_total() const {
  return impl_->emitted.load(std::memory_order_relaxed);
}

}  // namespace polardraw::obs
