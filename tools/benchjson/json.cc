#include "json.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

namespace polardraw::benchjson {

const Value* Value::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  ParseResult run() {
    ParseResult out;
    skip_ws();
    if (!parse_value(out.root)) {
      out.error = error_;
      return out;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      out.error = where() + "trailing characters after document";
      return out;
    }
    out.ok = true;
    return out;
  }

 private:
  [[nodiscard]] std::string where() const {
    std::size_t line = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++line;
    }
    return "line " + std::to_string(line) + ": ";
  }

  bool fail(const std::string& msg) {
    if (error_.empty()) error_ = where() + msg;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool expect(char c) {
    if (peek() != c) return fail(std::string("expected '") + c + "'");
    ++pos_;
    return true;
  }

  bool parse_value(Value& out) {
    if (depth_ > kMaxDepth) return fail("nesting too deep");
    switch (peek()) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': {
        out.type = Value::Type::kString;
        return parse_string(out.string);
      }
      case 't':
      case 'f': return parse_bool(out);
      case 'n': return parse_null(out);
      default: return parse_number(out);
    }
  }

  bool parse_object(Value& out) {
    out.type = Value::Type::kObject;
    ++depth_;
    if (!expect('{')) return false;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      Value member;
      if (!parse_value(member)) return false;
      out.object.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (!expect('}')) return false;
      --depth_;
      return true;
    }
  }

  bool parse_array(Value& out) {
    out.type = Value::Type::kArray;
    ++depth_;
    if (!expect('[')) return false;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return true;
    }
    while (true) {
      skip_ws();
      Value element;
      if (!parse_value(element)) return false;
      out.array.push_back(std::move(element));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (!expect(']')) return false;
      --depth_;
      return true;
    }
  }

  bool parse_string(std::string& out) {
    if (!expect('"')) return false;
    out.clear();
    while (true) {
      if (pos_ >= text_.size()) return fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the code point (surrogate pairs are not needed by
          // the writer, which only escapes control characters).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return fail("unknown escape sequence");
      }
    }
  }

  bool parse_bool(Value& out) {
    out.type = Value::Type::kBool;
    if (text_.substr(pos_, 4) == "true") {
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      out.boolean = false;
      pos_ += 5;
      return true;
    }
    return fail("expected boolean");
  }

  bool parse_null(Value& out) {
    if (text_.substr(pos_, 4) != "null") return fail("expected null");
    out.type = Value::Type::kNull;
    pos_ += 4;
    return true;
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    if (pos_ == start) return fail("expected value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(v)) {
      pos_ = start;
      return fail("malformed number");
    }
    out.type = Value::Type::kNumber;
    out.number = v;
    return true;
  }

  static constexpr int kMaxDepth = 64;
  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

void require_number_members(const Value* obj, const char* key,
                            std::vector<std::string>& problems) {
  if (obj == nullptr || !obj->is_object()) {
    problems.push_back(std::string(key) + ": missing or not an object");
    return;
  }
  for (const auto& [k, v] : obj->object) {
    if (!v.is_number()) {
      problems.push_back(std::string(key) + "." + k + ": not a number");
    }
  }
}

}  // namespace

ParseResult parse(std::string_view text) { return Parser(text).run(); }

std::vector<std::string> validate_bench_json(const Value& root) {
  std::vector<std::string> problems;
  if (!root.is_object()) {
    problems.emplace_back("root: not an object");
    return problems;
  }

  const Value* version = root.find("schema_version");
  if (version == nullptr || !version->is_number() || version->number != 1.0) {
    problems.emplace_back("schema_version: missing or != 1");
  }
  const Value* name = root.find("name");
  if (name == nullptr || !name->is_string() || name->string.empty()) {
    problems.emplace_back("name: missing or empty");
  }
  const Value* sha = root.find("git_sha");
  if (sha == nullptr || !sha->is_string() || sha->string.empty()) {
    problems.emplace_back("git_sha: missing or empty");
  }
  const Value* wall = root.find("wall_s");
  if (wall == nullptr || !wall->is_number() || wall->number < 0.0) {
    problems.emplace_back("wall_s: missing or negative");
  }

  require_number_members(root.find("config"), "config", problems);
  require_number_members(root.find("metrics"), "metrics", problems);
  require_number_members(root.find("counters"), "counters", problems);
  require_number_members(root.find("gauges"), "gauges", problems);

  const Value* stages = root.find("stages");
  if (stages == nullptr || !stages->is_object()) {
    problems.emplace_back("stages: missing or not an object");
  } else {
    static constexpr const char* kStageKeys[] = {"count", "total_s", "mean_ms",
                                                 "p50_ms", "p95_ms"};
    for (const auto& [stage, entry] : stages->object) {
      if (!entry.is_object()) {
        problems.push_back("stages." + stage + ": not an object");
        continue;
      }
      for (const char* k : kStageKeys) {
        const Value* v = entry.find(k);
        if (v == nullptr || !v->is_number()) {
          problems.push_back("stages." + stage + "." + k +
                             ": missing or not a number");
        }
      }
    }
  }
  return problems;
}

std::vector<std::string> validate_chrome_trace(const Value& root) {
  std::vector<std::string> problems;

  const std::vector<Value>* events = nullptr;
  if (root.type == Value::Type::kArray) {
    events = &root.array;
  } else if (root.is_object()) {
    const Value* te = root.find("traceEvents");
    if (te == nullptr || te->type != Value::Type::kArray) {
      problems.emplace_back("traceEvents: missing or not an array");
      return problems;
    }
    events = &te->array;
  } else {
    problems.emplace_back("root: not an object or array");
    return problems;
  }

  if (events->empty()) {
    problems.emplace_back("traceEvents: empty (no events recorded)");
    return problems;
  }

  const std::string kPhases = "XiIMBECstf";
  for (std::size_t i = 0; i < events->size(); ++i) {
    // Stop after a few bad events; one structural break tends to cascade.
    if (problems.size() >= 10) {
      problems.emplace_back("... further problems suppressed");
      break;
    }
    const Value& e = (*events)[i];
    const std::string at = "traceEvents[" + std::to_string(i) + "]";
    if (!e.is_object()) {
      problems.push_back(at + ": not an object");
      continue;
    }
    const Value* name = e.find("name");
    if (name == nullptr || !name->is_string() || name->string.empty()) {
      problems.push_back(at + ".name: missing or empty");
    }
    const Value* ph = e.find("ph");
    const bool ph_ok = ph != nullptr && ph->is_string() &&
                       ph->string.size() == 1 &&
                       kPhases.find(ph->string[0]) != std::string::npos;
    if (!ph_ok) {
      problems.push_back(at + ".ph: missing or not one of X i I M B E C s t f");
    }
    const Value* ts = e.find("ts");
    if (ts == nullptr || !ts->is_number() || ts->number < 0.0) {
      problems.push_back(at + ".ts: missing or negative");
    }
    for (const char* k : {"pid", "tid"}) {
      const Value* v = e.find(k);
      if (v == nullptr || !v->is_number()) {
        problems.push_back(at + "." + k + ": missing or not a number");
      }
    }
    if (ph_ok && ph->string[0] == 'X') {
      const Value* dur = e.find("dur");
      if (dur == nullptr || !dur->is_number() || dur->number < 0.0) {
        problems.push_back(at + ".dur: missing or negative ('X' event)");
      }
    }
    // Flow events (causal report chains) match on (cat, name, id): a
    // non-numeric or missing id breaks the arrows silently in Perfetto,
    // so pin it here.
    if (ph_ok && (ph->string[0] == 's' || ph->string[0] == 't' ||
                  ph->string[0] == 'f')) {
      const Value* fid = e.find("id");
      if (fid == nullptr || !fid->is_number() || fid->number < 0.0) {
        problems.push_back(at + ".id: missing or not a nonnegative number "
                           "(flow event)");
      }
      const Value* cat = e.find("cat");
      if (cat == nullptr || !cat->is_string() || cat->string.empty()) {
        problems.push_back(at + ".cat: missing or empty (flow event)");
      }
    }
    const Value* args = e.find("args");
    if (args != nullptr && !args->is_object()) {
      problems.push_back(at + ".args: present but not an object");
    }
  }
  return problems;
}

std::vector<std::string> validate_status_json(const Value& root) {
  std::vector<std::string> problems;
  if (!root.is_object()) {
    problems.emplace_back("root: not an object");
    return problems;
  }

  const Value* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != "polardraw.statusz.v1") {
    problems.emplace_back("schema: missing or != polardraw.statusz.v1");
  }
  const Value* t_s = root.find("t_s");
  if (t_s == nullptr || !t_s->is_number() || t_s->number < 0.0) {
    problems.emplace_back("t_s: missing or negative");
  }
  const Value* count = root.find("session_count");
  if (count == nullptr || !count->is_number() || count->number < 0.0) {
    problems.emplace_back("session_count: missing or negative");
  }

  const Value* sessions = root.find("sessions");
  if (sessions == nullptr || sessions->type != Value::Type::kArray) {
    problems.emplace_back("sessions: missing or not an array");
  } else {
    if (count != nullptr && count->is_number() &&
        count->number != static_cast<double>(sessions->array.size())) {
      problems.emplace_back("session_count: does not match sessions length");
    }
    for (std::size_t i = 0; i < sessions->array.size(); ++i) {
      if (problems.size() >= 10) {
        problems.emplace_back("... further problems suppressed");
        break;
      }
      const Value& s = sessions->array[i];
      const std::string at = "sessions[" + std::to_string(i) + "]";
      if (!s.is_object()) {
        problems.push_back(at + ": not an object");
        continue;
      }
      for (const char* k : {"id", "mailbox_depth", "submitted", "committed",
                            "commit_lag", "last_t_s"}) {
        const Value* v = s.find(k);
        if (v == nullptr || !v->is_number()) {
          problems.push_back(at + "." + k + ": missing or not a number");
        }
      }
      for (const char* k : {"seeded", "lagging", "starved", "backpressured"}) {
        const Value* v = s.find(k);
        if (v == nullptr || !v->is_bool()) {
          problems.push_back(at + "." + k + ": missing or not a boolean");
        }
      }
    }
  }

  const Value* rolling = root.find("rolling");
  if (rolling == nullptr || !rolling->is_object()) {
    problems.emplace_back("rolling: missing or not an object");
  } else {
    for (const char* k : {"window_s", "count", "p50_s", "p99_s"}) {
      const Value* v = rolling->find(k);
      if (v == nullptr || !v->is_number()) {
        problems.push_back(std::string("rolling.") + k +
                           ": missing or not a number");
      }
    }
  }

  const Value* registry = root.find("registry");
  if (registry == nullptr || !registry->is_object()) {
    problems.emplace_back("registry: missing or not an object");
  } else {
    require_number_members(registry->find("counters"), "registry.counters",
                           problems);
  }

  const Value* trace = root.find("trace");
  if (trace == nullptr || !trace->is_object()) {
    problems.emplace_back("trace: missing or not an object");
  } else {
    const Value* dropped = trace->find("dropped_events");
    if (dropped == nullptr || !dropped->is_number() || dropped->number < 0.0) {
      problems.emplace_back("trace.dropped_events: missing or negative");
    }
  }
  return problems;
}

}  // namespace polardraw::benchjson
