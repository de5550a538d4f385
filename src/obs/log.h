// Structured JSON-lines logging (DESIGN.md section 17).
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
//   * Deterministic lines: each line carries the simulation timestamp its
//     caller passes (polarlint R7: no clock reads in this file), so a
//     replayed run writes the same bytes. Every event at every level is
//     written; emitted_total() and the "log.emitted" counter count them.
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

enum class LogLevel { kInfo, kWarn };

/// Lowercase wire name ("info", "warn").
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
  /// Opens `path` ("-"/"stderr" = standard error) as an owned sink. A
  /// path that cannot be opened leaves the logger off and says so in one
  /// line on standard error.
  void set_sink_path(std::string_view path);

  [[nodiscard]] bool enabled() const;

  /// Emits one JSON line {"t_s":..,"level":..,"event":..,<fields>} when a
  /// sink is set; `t_s` is the caller's simulation time. `fields`
  /// (optional) appends event-specific keys via the writer.
  void log(LogLevel level, double t_s, std::string_view event,
           const std::function<void(JsonWriter&)>& fields = nullptr);

  /// Lines written since construction.
  [[nodiscard]] std::uint64_t emitted_total() const;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace polardraw::obs
