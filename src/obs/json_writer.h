// Minimal streaming JSON writer (no third-party dependencies).
//
// Emits pretty-printed, deterministic JSON for the BENCH_*.json perf
// trajectory: keys are written in caller order, doubles use shortest
// round-trip formatting via %.17g with a trailing-zero trim, and strings
// are escaped per RFC 8259. The writer tracks nesting and inserts commas,
// so callers only sequence begin/end/key/value calls.
#pragma once

#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

namespace polardraw::obs {

class JsonWriter {
 public:
  /// Layout of the emitted document. kPretty is the BENCH_*.json default;
  /// kCompact packs everything onto one line (no newlines, no indent) for
  /// JSON-lines sinks like obs/log.
  enum class Style { kPretty, kCompact };

  explicit JsonWriter(std::ostream& os, Style style = Style::kPretty)
      : os_(os), compact_(style == Style::kCompact) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emits a key inside an object; must be followed by a value or a
  /// begin_object/begin_array.
  void key(std::string_view k);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(double d);
  void value(std::uint64_t v);
  void value(std::int64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(bool b);

  /// Convenience: key + value in one call.
  template <typename T>
  void kv(std::string_view k, T v) {
    key(k);
    value(v);
  }

  /// Serializes a double the way value(double) does; exposed so tests can
  /// pin the deterministic number formatting.
  static std::string format_double(double d);

 private:
  struct Level {
    bool is_object = false;
    bool has_items = false;
    bool expecting_value = false;  // a key was just written
  };

  void pre_value();
  void newline_indent();
  void write_escaped(std::string_view s);

  std::ostream& os_;
  bool compact_ = false;
  std::vector<Level> stack_;
};

}  // namespace polardraw::obs
