// Structured, rate-limited JSON-lines logging (DESIGN.md section 17).
//
// Server lifecycle events (session open/close, hop-fence, backpressure)
// emit one JSON object per line:
//
//   {"t_s":12.35,"level":"info","event":"assoc.hop_fence","session":...}
//
// Three properties, mirroring the metrics registry contract:
//
//   * Zero feedback: logging only observes. The enabled check is one
//     relaxed atomic load; instrumented code never branches on logger
//     state beyond "skip the emit".
//   * Deterministic rate limiting: the token bucket is keyed on the
//     simulation timestamps callers already carry (polarlint R7: no
//     clock reads in this file), so a replayed run suppresses exactly
//     the same events. Suppressions are counted per event name and
//     surfaced through suppressed_total() / the "log.suppressed"
//     counter.
//   * Thread-safe emit: one mutex serializes sink writes; hot paths log
//     rarely (lifecycle edges, drops), never per-observation.
//
// The global logger is off until given a sink (POLARDRAW_LOG=<path|->
// at startup, or Logger::set_sink in tests/benches).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string_view>

namespace polardraw::obs {

class JsonWriter;

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Lowercase wire name ("debug", "info", "warn", "error").
[[nodiscard]] std::string_view log_level_name(LogLevel level);

class Logger {
 public:
  /// The process-wide logger. Opens a sink at startup when the
  /// POLARDRAW_LOG environment variable names a file path ("-" or
  /// "stderr" for standard error).
  static Logger& global();

  Logger();
  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;
  ~Logger();

  /// Points the logger at a stream (not owned; nullptr disables). The
  /// caller keeps the stream alive until the next set_sink.
  void set_sink(std::ostream* os);
  /// Opens `path` ("-"/"stderr" = standard error) as an owned sink.
  void set_sink_path(std::string_view path);

  [[nodiscard]] bool enabled() const;
  void set_min_level(LogLevel level);

  /// Deterministic token bucket: at most `burst` events back-to-back,
  /// refilling at `events_per_s` in *simulation* time. Non-positive
  /// events_per_s disables limiting (the default).
  void set_rate_limit(double events_per_s, double burst);

  /// Emits one JSON line {"t_s":..,"level":..,"event":..,<fields>} if the
  /// level passes and the token bucket has budget at sim time `t_s`.
  /// `fields` (optional) appends event-specific keys via the writer.
  void log(LogLevel level, double t_s, std::string_view event,
           const std::function<void(JsonWriter&)>& fields = nullptr);

  /// Lines written / suppressed by the rate limiter since construction.
  [[nodiscard]] std::uint64_t emitted_total() const;
  [[nodiscard]] std::uint64_t suppressed_total() const;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace polardraw::obs
