// Minimal recursive-descent JSON parser and BENCH_*.json schema checker
// (no third-party dependencies) for the benchjson runner and its tests.
//
// The parser accepts RFC 8259 JSON (objects, arrays, strings with escape
// sequences, numbers, booleans, null) into a simple tree of Values; the
// validator pins the schema contract of the BENCH_<name>.json files that
// bench::Session emits, so a schema drift fails CI instead of silently
// breaking downstream dashboards.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace polardraw::benchjson {

/// One parsed JSON value. Object members keep file order.
struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  [[nodiscard]] bool is_object() const { return type == Type::kObject; }
  [[nodiscard]] bool is_number() const { return type == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type == Type::kString; }
  [[nodiscard]] bool is_bool() const { return type == Type::kBool; }

  /// Member lookup on objects; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;
};

/// Outcome of a parse: `ok` plus either the root value or an error message
/// with a 1-based line number.
struct ParseResult {
  bool ok = false;
  Value root;
  std::string error;
};

/// Parses one JSON document (trailing whitespace allowed, trailing garbage
/// rejected).
[[nodiscard]] ParseResult parse(std::string_view text);

/// Checks a parsed BENCH_*.json document against the schema contract
/// (schema_version 1). Returns human-readable problems; empty means valid.
[[nodiscard]] std::vector<std::string> validate_bench_json(const Value& root);

/// Checks a parsed Chrome trace-event document (TRACE_*.json, as written
/// by obs::Tracer::write_chrome_trace and loadable in Perfetto). Accepts
/// either the object form {"traceEvents": [...]} or a bare event array.
/// Every event needs a nonempty name, a one-character ph in {X,i,I,M,B,E,C}
/// or one of the flow phases {s,t,f}, a nonnegative numeric ts, and numeric
/// pid/tid. 'X' events also need a nonnegative dur; flow events need a
/// nonnegative numeric id and a nonempty cat. args (when present) must be
/// an object.
/// Returns human-readable problems; empty means valid.
[[nodiscard]] std::vector<std::string> validate_chrome_trace(
    const Value& root);

/// Checks a parsed statusz document (SessionServer::status(), schema
/// "polardraw.statusz.v1"; test_statusz runs it on live servers):
/// top-level schema/t_s/session_count/sessions, per-session required
/// members with the seeded/lagging/starved/backpressured flags as
/// booleans, the rolling block (count, p50_s, p99_s), registry.counters
/// as numbers, and trace.dropped_events.
/// Returns human-readable problems; empty means valid.
[[nodiscard]] std::vector<std::string> validate_status_json(const Value& root);

}  // namespace polardraw::benchjson
