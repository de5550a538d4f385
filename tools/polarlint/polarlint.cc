#include "polarlint.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>

namespace polarlint {

namespace detail {

std::vector<SplitLine> split_lines(std::string_view content) {
  enum class State { kCode, kString, kChar, kLineComment, kBlockComment };
  std::vector<SplitLine> lines;
  SplitLine cur;
  State state = State::kCode;
  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) state = State::kCode;
      lines.push_back(std::move(cur));
      cur = SplitLine{};
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == '"') {
          cur.code += '"';
          state = State::kString;
        } else if (c == '\'') {
          cur.code += '\'';
          state = State::kChar;
        } else {
          cur.code += c;
        }
        break;
      case State::kString:
      case State::kChar: {
        const char quote = state == State::kString ? '"' : '\'';
        if (c == '\\') {
          cur.code += ' ';
          if (next != '\0' && next != '\n') {
            cur.code += ' ';
            ++i;
          }
        } else if (c == quote) {
          cur.code += quote;
          state = State::kCode;
        } else {
          cur.code += ' ';  // blank literal contents, keep column alignment
        }
        break;
      }
      case State::kLineComment:
        cur.comment += c;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        } else {
          cur.comment += c;
        }
        break;
    }
  }
  lines.push_back(std::move(cur));
  return lines;
}

std::vector<std::string> identifier_words(std::string_view name) {
  while (!name.empty() && name.back() == '_') name.remove_suffix(1);
  std::vector<std::string> words;
  std::string cur;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    if (c == '_') {
      if (!cur.empty()) words.push_back(std::move(cur));
      cur.clear();
      continue;
    }
    // camelCase boundary: lower-or-digit followed by upper starts a new word.
    if (std::isupper(static_cast<unsigned char>(c)) && !cur.empty() &&
        !std::isupper(static_cast<unsigned char>(cur.back()))) {
      words.push_back(std::move(cur));
      cur.clear();
    }
    cur += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (!cur.empty()) words.push_back(std::move(cur));
  return words;
}

}  // namespace detail

namespace {

using detail::identifier_words;
using detail::SplitLine;

bool path_ends_with(std::string_view path, std::string_view suffix) {
  std::string p(path);
  for (char& c : p)
    if (c == '\\') c = '/';
  return p.size() >= suffix.size() &&
         p.compare(p.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string normalized_path(std::string_view path) {
  std::string p(path);
  for (char& c : p)
    if (c == '\\') c = '/';
  return p;
}

/// True if `component` appears as a whole path component ("obs" matches
/// src/obs/tracer.cc and tests/obs/test_tracer.cc, not src/observations/).
bool path_has_component(std::string_view path, std::string_view component) {
  const std::string p = normalized_path(path);
  std::size_t b = 0;
  while (b <= p.size()) {
    const std::size_t e = p.find('/', b);
    const std::string_view part(p.data() + b,
                                (e == std::string::npos ? p.size() : e) - b);
    if (part == component) return true;
    if (e == std::string::npos) break;
    b = e + 1;
  }
  return false;
}

bool path_starts_with(std::string_view path, std::string_view prefix) {
  const std::string p = normalized_path(path);
  return p.rfind(prefix, 0) == 0;
}

bool contains_word(const std::vector<std::string>& words, std::string_view w) {
  for (const auto& x : words)
    if (x == w) return true;
  return false;
}

// Identifiers whose presence in a statement marks the fmod operand as
// angle-like.
constexpr std::array<std::string_view, 22> kAngleEvidenceWords = {
    "pi",      "angle",   "angles",  "theta",       "phase",   "phases",
    "alpha",   "beta",    "gamma",   "azimuth",     "elevation", "rotation",
    "bearing", "heading", "orientation", "rad",     "radians", "deg",
    "degrees", "wrap",    "fold",    "polarization"};

// Name stems that mark a double field/parameter as angle- or power-valued.
constexpr std::array<std::string_view, 19> kUnitStems = {
    "angle",   "azimuth", "elevation", "phase",       "theta",
    "alpha",   "beta",    "gamma",     "rotation",    "mismatch",
    "bearing", "heading", "orientation", "tilt",      "tremor",
    "power",   "rss",     "gain",      "xpd"};

// Accepted unit suffixes (the last word of the identifier). rad2 covers
// variances of angles (rad^2).
constexpr std::array<std::string_view, 7> kUnitSuffixes = {
    "rad", "deg", "dbm", "db", "dbi", "mw", "rad2"};

// Identifier words that mark a sort key / comparator as float-valued (R6).
constexpr std::array<std::string_view, 12> kFloatKeyWords = {
    "float", "double", "logp", "prob", "probability", "weight",
    "score", "cost",   "dist", "distance", "metric",  "likelihood"};

// Thread-safety annotation macros whose arguments name mutex capabilities
// (R9). Kept in sync with common/annotations.h.
constexpr std::array<std::string_view, 8> kLockAnnotationMacros = {
    "PD_GUARDED_BY", "PD_PT_GUARDED_BY", "PD_REQUIRES",  "PD_ACQUIRE",
    "PD_RELEASE",    "PD_TRY_ACQUIRE",   "PD_EXCLUDES",  "PD_ASSERT_CAPABILITY"};

// The declared include-layering DAG (R8, DESIGN.md section 15). A src/
// directory may include itself and any directory of strictly lower rank;
// equal-rank siblings may not include each other. obs sits at the bottom so
// every layer may instrument itself.
const std::map<std::string, int>& layer_ranks() {
  static const std::map<std::string, int> ranks = {
      {"obs", 0},      {"common", 1},     {"em", 2},       {"channel", 3},
      {"handwriting", 3}, {"rfid", 4},    {"core", 5},     {"recognition", 5},
      {"sim", 5},      {"baselines", 5},  {"eval", 6},     {"server", 7}};
  return ranks;
}

struct Token {
  enum class Kind { kIdent, kNumber, kPunct };
  Kind kind;
  std::string text;
  int line = 0;         // 1-based
  int paren_depth = 0;  // depth *before* this token
  bool record_scope = false;  // directly inside a struct/class/union body
  bool namespace_scope = false;  // at file scope or directly in a namespace
  bool control_paren = false;  // inside a for/if/while/switch/catch (...)
};

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Tokenizes the stripped code text, tracking paren depth and whether each
/// token sits at struct/class member scope or at namespace scope (a
/// one-pass heuristic: a brace opens a record body iff a struct/class/union
/// keyword is pending, and a namespace body iff a namespace keyword is).
std::vector<Token> tokenize(const std::vector<SplitLine>& lines) {
  std::vector<Token> toks;
  enum class Scope { kRecord, kNamespace, kBlock };
  std::vector<Scope> scopes;
  bool pending_record = false;
  bool pending_namespace = false;
  int paren_depth = 0;
  // Declarations inside a control-statement's parens (`for (double b = ..`)
  // are locals, not parameters; track which open parens are control parens.
  std::vector<bool> control_parens;
  bool pending_control = false;
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& s = lines[li].code;
    for (std::size_t i = 0; i < s.size();) {
      const char c = s[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      Token t;
      t.line = static_cast<int>(li) + 1;
      t.paren_depth = paren_depth;
      t.record_scope = !scopes.empty() && scopes.back() == Scope::kRecord;
      t.namespace_scope = scopes.empty() || scopes.back() == Scope::kNamespace;
      t.control_paren =
          !control_parens.empty() &&
          std::find(control_parens.begin(), control_parens.end(), true) !=
              control_parens.end();
      if (ident_start(c)) {
        std::size_t j = i;
        while (j < s.size() && ident_char(s[j])) ++j;
        t.kind = Token::Kind::kIdent;
        t.text = s.substr(i, j - i);
        i = j;
        if (t.text == "struct" || t.text == "class" || t.text == "union")
          pending_record = true;
        if (t.text == "namespace") pending_namespace = true;
        pending_control = t.text == "for" || t.text == "if" ||
                          t.text == "while" || t.text == "switch" ||
                          t.text == "catch";
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        // pp-number: digits, dots, letters, and exponent signs.
        std::size_t j = i;
        while (j < s.size()) {
          const char d = s[j];
          if (ident_char(d) || d == '.' || d == '\'') {
            ++j;
          } else if ((d == '+' || d == '-') && j > i &&
                     (s[j - 1] == 'e' || s[j - 1] == 'E' || s[j - 1] == 'p' ||
                      s[j - 1] == 'P')) {
            ++j;
          } else {
            break;
          }
        }
        t.kind = Token::Kind::kNumber;
        t.text = s.substr(i, j - i);
        i = j;
      } else {
        t.kind = Token::Kind::kPunct;
        t.text = std::string(1, c);
        ++i;
        switch (c) {
          case '{':
            scopes.push_back(pending_record      ? Scope::kRecord
                             : pending_namespace ? Scope::kNamespace
                                                 : Scope::kBlock);
            pending_record = false;
            pending_namespace = false;
            break;
          case '}':
            if (!scopes.empty()) scopes.pop_back();
            break;
          case '(':
            ++paren_depth;
            control_parens.push_back(pending_control);
            pending_control = false;
            pending_record = false;
            break;
          case ')':
            if (paren_depth > 0) --paren_depth;
            if (!control_parens.empty()) control_parens.pop_back();
            break;
          case ';':
            pending_namespace = false;  // `using namespace x;`, an alias
            [[fallthrough]];
          case '>':
            pending_record = false;
            break;
          default:
            break;
        }
      }
      toks.push_back(std::move(t));
    }
  }
  return toks;
}

std::string normalized_line(const std::string& code) {
  std::string out;
  bool space = false;
  for (char c : code) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      space = !out.empty();
      continue;
    }
    if (space) out += ' ';
    space = false;
    out += c;
  }
  return out;
}

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

/// Parsed suppression directives (see polarlint.h) and the hot-path tag.
struct Directives {
  // One entry per directive: the rule it suppresses and the inclusive line
  // range it covers -- the directive's own line (for trailing comments)
  // through the first code-bearing line below it, so a reason wrapped over
  // several comment lines still reaches the statement it precedes.
  struct Allow {
    std::string rule;
    int first;
    int last;
  };
  std::vector<Allow> allows;
  bool hot_path = false;
  std::vector<Violation> errors;  // malformed directives
};

Directives parse_directives(std::string_view path,
                            const std::vector<SplitLine>& lines) {
  Directives d;
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& c = lines[li].comment;
    const int line = static_cast<int>(li) + 1;
    if (c.find("polarlint: hot-path") != std::string::npos) d.hot_path = true;
    std::size_t pos = 0;
    while ((pos = c.find("polarlint-allow", pos)) != std::string::npos) {
      std::size_t p = pos + std::string_view("polarlint-allow").size();
      auto malformed = [&](const std::string& why) {
        d.errors.push_back({"DIRECTIVE", std::string(path), line,
                            normalized_line(c),
                            "malformed polarlint-allow directive: " + why});
      };
      if (p >= c.size() || c[p] != '(') {
        malformed("expected '(Rn)'");
        break;
      }
      const std::size_t close = c.find(')', p);
      if (close == std::string::npos) {
        malformed("unterminated rule list");
        break;
      }
      const std::string rule = trim(c.substr(p + 1, close - p - 1));
      const bool known = rule.size() == 2 && rule[0] == 'R' && rule[1] >= '1' &&
                         rule[1] <= '9';
      if (!known) {
        malformed("unknown rule '" + rule + "'");
        pos = close;
        continue;
      }
      std::size_t after = close + 1;
      while (after < c.size() &&
             std::isspace(static_cast<unsigned char>(c[after])))
        ++after;
      if (after >= c.size() || c[after] != ':' ||
          trim(c.substr(after + 1)).empty()) {
        malformed("suppression needs a reason: // polarlint-allow(" + rule +
                  "): <why>");
        pos = close;
        continue;
      }
      // Cover through the first line that actually carries code: skip
      // blank and comment-only continuation lines below the directive.
      int last = line;
      for (std::size_t j = li + 1; j < lines.size(); ++j) {
        last = static_cast<int>(j) + 1;
        if (!trim(lines[j].code).empty()) break;
      }
      d.allows.push_back({rule, line, last});
      pos = close;
    }
  }
  return d;
}

bool suppressed(const Directives& d, const std::string& rule, int line) {
  for (const auto& a : d.allows)
    if (a.rule == rule && line >= a.first && line <= a.last) return true;
  return false;
}

bool has_unit_stem(const std::vector<std::string>& words) {
  for (std::string_view stem : kUnitStems)
    if (contains_word(words, stem)) return true;
  return false;
}

bool has_unit_suffix(const std::vector<std::string>& words) {
  if (words.empty()) return false;
  for (std::string_view suf : kUnitSuffixes)
    if (words.back() == suf) return true;
  return false;
}

bool is_ten_literal(const std::string& text) {
  // Accept 10, 10., 10.0, 10.00, 1e1 -- the forms dB code actually writes.
  if (text == "10" || text == "1e1" || text == "1E1") return true;
  if (text.rfind("10.", 0) == 0) {
    for (std::size_t i = 3; i < text.size(); ++i)
      if (text[i] != '0') return false;
    return true;
  }
  return false;
}

// --------------------------------------------------------------------------
// Token-stream structure helpers (statement ranges, matching parens,
// comparator resolution). These are what make the analyzer symbol-aware
// rather than line-wise.
// --------------------------------------------------------------------------

/// Index of the `)` matching the `(` at `open`, or toks.size() if
/// unterminated.
std::size_t match_paren(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kPunct) continue;
    if (toks[i].text == "(") ++depth;
    if (toks[i].text == ")" && --depth == 0) return i;
  }
  return toks.size();
}

/// Index of the `}` matching the `{` at `open`, or toks.size().
std::size_t match_brace(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kPunct) continue;
    if (toks[i].text == "{") ++depth;
    if (toks[i].text == "}" && --depth == 0) return i;
  }
  return toks.size();
}

/// Token range [begin, end) of the statement enclosing token `idx`:
/// bounded by the nearest `;` / `{` / `}` on either side. Multi-line
/// statements are one range -- this is what fixed the old per-physical-line
/// R1 evidence scan.
std::pair<std::size_t, std::size_t> statement_range(
    const std::vector<Token>& toks, std::size_t idx) {
  std::size_t b = idx;
  while (b > 0) {
    const Token& t = toks[b - 1];
    if (t.kind == Token::Kind::kPunct &&
        (t.text == ";" || t.text == "{" || t.text == "}"))
      break;
    --b;
  }
  std::size_t e = idx;
  while (e < toks.size()) {
    const Token& t = toks[e];
    if (t.kind == Token::Kind::kPunct &&
        (t.text == ";" || t.text == "{" || t.text == "}")) {
      ++e;
      break;
    }
    ++e;
  }
  return {b, e};
}

/// True if any identifier in [b, e) (other than fmod/std) contains an
/// angle-evidence word.
bool range_has_angle_evidence(const std::vector<Token>& toks, std::size_t b,
                              std::size_t e) {
  for (std::size_t i = b; i < e && i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kIdent || t.text == "fmod" || t.text == "std")
      continue;
    const auto words = identifier_words(t.text);
    for (std::string_view w : kAngleEvidenceWords)
      if (contains_word(words, w)) return true;
  }
  return false;
}

/// True if [b, e) mentions a float-valued key: the float/double keywords or
/// an identifier containing a float-key word (logp, score, weight, ...).
bool range_has_float_key(const std::vector<Token>& toks, std::size_t b,
                         std::size_t e) {
  for (std::size_t i = b; i < e && i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kIdent) continue;
    for (std::string w : identifier_words(t.text)) {
      // Containers of keys are usually plural (scores, weights, costs).
      if (w.size() > 1 && w.back() == 's') w.pop_back();
      for (std::string_view k : kFloatKeyWords)
        if (w == k) return true;
    }
  }
  return false;
}

/// True if [b, e) shows the canonical index tie-break shape: an equality
/// compare (`==`) combined with a disjunction (`||`), as in
/// `lx > ly || (lx == ly && x < y)`. Single-char punct tokens, so the
/// digraphs appear as adjacent token pairs.
bool range_has_tie_break(const std::vector<Token>& toks, std::size_t b,
                         std::size_t e) {
  bool has_eq = false, has_or = false;
  for (std::size_t i = b; i + 1 < e && i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kPunct) continue;
    if (toks[i].text == "=" && toks[i + 1].text == "=") has_eq = true;
    if (toks[i].text == "|" && toks[i + 1].text == "|") has_or = true;
  }
  return has_eq && has_or;
}

/// Finds the body of a named comparator defined in this translation unit:
/// `auto name = [..](..) {body}` or `bool name(..) {body}`. Returns the
/// token range of the whole definition (so parameter types count as float
/// evidence), or {0, 0} when unresolved.
std::pair<std::size_t, std::size_t> find_comparator_definition(
    const std::vector<Token>& toks, const std::string& name,
    std::size_t before) {
  for (std::size_t i = 0; i + 1 < before && i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent || toks[i].text != name) continue;
    const std::string& next = toks[i + 1].text;
    if (next != "=" && next != "(") continue;
    // Scan forward to the definition's opening brace; give up at `;` first
    // (a declaration or an unrelated use).
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      if (toks[j].kind != Token::Kind::kPunct) continue;
      if (toks[j].text == ";") break;
      if (toks[j].text == "{") {
        const std::size_t close = match_brace(toks, j);
        if (close < toks.size()) return {i, close + 1};
        break;
      }
    }
  }
  return {0, 0};
}

/// Arg count of the sort-family functions before the optional comparator.
int sort_base_args(const std::string& name) {
  return name == "nth_element" || name == "partial_sort" ? 3 : 2;
}

/// Splits the call argument region (open+1 .. close) into top-level
/// argument token ranges.
std::vector<std::pair<std::size_t, std::size_t>> split_call_args(
    const std::vector<Token>& toks, std::size_t open, std::size_t close) {
  std::vector<std::pair<std::size_t, std::size_t>> args;
  int depth = 0;
  std::size_t b = open + 1;
  for (std::size_t i = open + 1; i < close; ++i) {
    if (toks[i].kind != Token::Kind::kPunct) continue;
    const std::string& s = toks[i].text;
    if (s == "(" || s == "[" || s == "{") ++depth;
    if (s == ")" || s == "]" || s == "}") --depth;
    if (s == "," && depth == 0) {
      args.emplace_back(b, i);
      b = i + 1;
    }
  }
  if (b < close) args.emplace_back(b, close);
  return args;
}

}  // namespace

bool is_hot_path_tagged(std::string_view content) {
  return parse_directives("", detail::split_lines(content)).hot_path;
}

std::vector<Violation> lint_source(std::string_view path,
                                   std::string_view content) {
  const std::vector<SplitLine> lines = detail::split_lines(content);
  const Directives directives = parse_directives(path, lines);
  const std::vector<Token> toks = tokenize(lines);

  const bool exempt_r1 = path_ends_with(path, "common/angles.h") ||
                         path_ends_with(path, "common/angles.cc");
  const bool exempt_r2 = path_ends_with(path, "common/units.h");
  const bool exempt_r4 = path_ends_with(path, "common/rng.h") ||
                         path_ends_with(path, "common/seed.h");
  // R6 polices the decode-critical code only: PolarDraw's decode and
  // server, the baselines' decode, and the beam prune they share (not all
  // of common/, whose stats sort doubles for percentiles).
  const bool scope_r6 = path_starts_with(path, "src/core/") ||
                        path_starts_with(path, "src/server/") ||
                        path_starts_with(path, "src/baselines/") ||
                        path_ends_with(path, "common/beam.h") ||
                        path_ends_with(path, "common/beam.cc");
  // R7: clocks may be read by the observability layer (src/obs and its
  // tests), the pool's trace plumbing, and benchmarks. EXCEPT the
  // sim-time-driven obs modules: the rolling SLO window and the
  // structured logger advance on observation timestamps by contract
  // (DESIGN.md section 17) -- a wall-clock read there would silently
  // break replay determinism, so they lose the blanket obs exemption and
  // any clock read there must carry its own R7 suppression.
  const bool sim_time_only_obs = path_ends_with(path, "obs/rolling.h") ||
                                 path_ends_with(path, "obs/rolling.cc") ||
                                 path_ends_with(path, "obs/log.h") ||
                                 path_ends_with(path, "obs/log.cc");
  const bool exempt_r7 = !sim_time_only_obs &&
                         (path_has_component(path, "obs") ||
                          path_has_component(path, "bench") ||
                          path_ends_with(path, "common/thread_pool.h"));
  const bool scope_r8 = path_starts_with(path, "src/");
  const bool scope_r9 = path_starts_with(path, "src/") &&
                        !path_ends_with(path, "common/annotations.h");

  std::vector<Violation> out = directives.errors;
  auto emit = [&](const std::string& rule, int line, std::string key,
                  std::string message) {
    if (suppressed(directives, rule, line)) return;
    out.push_back({rule, std::string(path), line, std::move(key),
                   std::move(message)});
  };
  auto line_key = [&](int line) {
    return normalized_line(lines[static_cast<std::size_t>(line) - 1].code);
  };

  // R9 prescan: every identifier named inside a lock-annotation macro's
  // parens is an "annotated" capability.
  std::set<std::string> annotated_mutexes;
  if (scope_r9) {
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != Token::Kind::kIdent) continue;
      bool is_macro = false;
      for (std::string_view m : kLockAnnotationMacros)
        if (toks[i].text == m) is_macro = true;
      if (!is_macro || toks[i + 1].text != "(") continue;
      const std::size_t close = match_paren(toks, i + 1);
      for (std::size_t j = i + 2; j < close && j < toks.size(); ++j)
        if (toks[j].kind == Token::Kind::kIdent)
          annotated_mutexes.insert(toks[j].text);
    }
  }

  // R8: real include graph vs the declared layering DAG. Include paths live
  // inside string literals (blanked in the tokenized code), so they are
  // read from the raw content, cross-checked against the stripped code so
  // commented-out includes do not count.
  if (scope_r8) {
    const std::string file_dir = [&] {
      const std::string p = normalized_path(path).substr(4);  // drop "src/"
      const std::size_t slash = p.find('/');
      return slash == std::string::npos ? std::string() : p.substr(0, slash);
    }();
    const auto& ranks = layer_ranks();
    const auto file_rank = ranks.find(file_dir);
    if (file_rank != ranks.end()) {
      std::size_t line_begin = 0;
      for (std::size_t li = 0; li < lines.size(); ++li) {
        const std::size_t line_end = content.find('\n', line_begin);
        const std::string_view raw = content.substr(
            line_begin,
            (line_end == std::string_view::npos ? content.size() : line_end) -
                line_begin);
        line_begin =
            line_end == std::string_view::npos ? content.size() : line_end + 1;
        if (lines[li].code.find("#") == std::string::npos ||
            lines[li].code.find("include") == std::string::npos)
          continue;
        const std::size_t q1 = raw.find('"');
        if (q1 == std::string_view::npos) continue;
        const std::size_t q2 = raw.find('"', q1 + 1);
        if (q2 == std::string_view::npos) continue;
        const std::string inc(raw.substr(q1 + 1, q2 - q1 - 1));
        // annotations.h is a dependency-free leaf (macros + a std::mutex
        // wrapper); even obs/ at the bottom of the DAG may use it.
        if (inc == "common/annotations.h") continue;
        const std::size_t slash = inc.find('/');
        if (slash == std::string::npos) continue;  // sibling include
        const auto inc_rank = ranks.find(inc.substr(0, slash));
        if (inc_rank == ranks.end()) continue;
        const bool allowed = inc_rank->first == file_rank->first ||
                             inc_rank->second < file_rank->second;
        if (!allowed) {
          emit("R8", static_cast<int>(li) + 1, inc,
               "include of \"" + inc + "\" from " + file_dir +
                   "/ breaks the layering DAG (obs < common < em < "
                   "{channel,handwriting} < rfid < "
                   "{core,recognition,sim,baselines} < eval < server); "
                   "only lower layers may be included");
        }
      }
    }
  }

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kIdent) continue;

    // R1: raw fmod on an angle expression (whole-statement evidence).
    if (!exempt_r1 && t.text == "fmod") {
      const auto [sb, se] = statement_range(toks, i);
      if (range_has_angle_evidence(toks, sb, se)) {
        emit("R1", t.line, line_key(t.line),
             "raw fmod on an angle expression; use wrap_2pi / wrap_pi / "
             "fold_pi / angle_diff from common/angles.h");
      }
    }

    // R2: raw log10 / pow(10, ...) dB math.
    if (!exempt_r2) {
      if (t.text == "log10") {
        emit("R2", t.line, line_key(t.line),
             "raw log10 dB math; use mw_to_dbm / ratio_to_db from "
             "common/units.h");
      } else if (t.text == "pow" && i + 2 < toks.size() &&
                 toks[i + 1].text == "(" &&
                 toks[i + 2].kind == Token::Kind::kNumber &&
                 is_ten_literal(toks[i + 2].text)) {
        emit("R2", t.line, line_key(t.line),
             "raw pow(10, x) dB conversion; use dbm_to_mw / db_to_ratio / "
             "db_to_amplitude_ratio from common/units.h");
      }
    }

    // R4: entropy / C-library randomness outside the seeded Rng.
    if (!exempt_r4 &&
        (t.text == "rand" || t.text == "srand" || t.text == "random_device")) {
      emit("R4", t.line, line_key(t.line),
           "raw " + t.text +
               "; all randomness must flow through common/rng.h with seeds "
               "derived via common/seed.h (determinism guard)");
    }

    // R5: node-based hash map in a hot-path file.
    if (directives.hot_path && t.text == "unordered_map") {
      emit("R5", t.line, line_key(t.line),
           "std::unordered_map in a `polarlint: hot-path` file; use a dense "
           "array / flat structure (see the box-local merge arrays in "
           "core/expand_kernel.h)");
    }

    // R6a: unordered containers are banned in the R6 scope --
    // iteration order is implementation-defined and must never feed
    // decoded output.
    if (scope_r6 && (t.text == "unordered_map" || t.text == "unordered_set" ||
                     t.text == "unordered_multimap" ||
                     t.text == "unordered_multiset")) {
      emit("R6", t.line, line_key(t.line),
           "std::" + t.text +
               " in decode-critical code; iteration order is "
               "implementation-defined and must not feed decoded output "
               "(use a sorted or dense structure)");
    }

    // R6b: sort-family calls over float keys need an index tie-broken
    // comparator, so the survivor set is a pure function of the values.
    if (scope_r6 &&
        (t.text == "sort" || t.text == "stable_sort" ||
         t.text == "partial_sort" || t.text == "nth_element") &&
        i + 1 < toks.size() && toks[i + 1].text == "(") {
      const std::size_t close = match_paren(toks, i + 1);
      const auto args = split_call_args(toks, i + 1, close);
      const int base = sort_base_args(t.text);
      const auto [sb, se] = statement_range(toks, i);
      if (static_cast<int>(args.size()) <= base) {
        // No comparator: default operator< partitions float ties at the
        // stdlib's whim. Only flag when the statement smells of float keys.
        if (range_has_float_key(toks, sb, se)) {
          emit("R6", t.line, line_key(t.line),
               "std::" + t.text +
                   " over float/double keys without a comparator; use an "
                   "index-tie-broken comparator (PR-7 lesson: survivor sets "
                   "must not depend on how the stdlib partitions ties)");
        }
      } else {
        const auto [cb, ce] = args.back();
        std::size_t body_b = cb, body_e = ce;
        bool resolved = true;
        // A bare identifier names a comparator defined elsewhere in this
        // file; resolve it so the tie-break check sees the real body.
        bool is_name = ce == cb + 1 && toks[cb].kind == Token::Kind::kIdent;
        if (is_name) {
          const auto def = find_comparator_definition(toks, toks[cb].text, i);
          if (def.second > def.first) {
            body_b = def.first;
            body_e = def.second;
          } else {
            resolved = false;
          }
        }
        const bool floaty = range_has_float_key(toks, body_b, body_e) ||
                            range_has_float_key(toks, sb, se);
        if (floaty &&
            (!resolved || !range_has_tie_break(toks, body_b, body_e))) {
          emit("R6", t.line, line_key(t.line),
               "std::" + t.text +
                   " comparator over float/double keys lacks an index "
                   "tie-break (want `a > b || (a == b && ia < ib)`); ties "
                   "partitioned by the stdlib are not deterministic across "
                   "implementations");
        }
      }
    }

    // R7: wall-clock reads outside the observability layer break
    // stream/batch bit-identity (a clock read can never feed decode).
    if (!exempt_r7 && t.text == "now" && i + 1 < toks.size() &&
        toks[i + 1].text == "(" && i >= 3 && toks[i - 1].text == ":" &&
        toks[i - 2].text == ":" && toks[i - 3].kind == Token::Kind::kIdent) {
      std::string qualifier = toks[i - 3].text;
      for (char& c : qualifier)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      if (qualifier.find("clock") != std::string::npos) {
        emit("R7", t.line, line_key(t.line),
             "clock read (" + toks[i - 3].text +
                 "::now) outside obs/ / common/thread_pool.h / bench/; "
                 "wall time must never feed the decode chain -- "
                 "measurement-only reads need a polarlint-allow(R7) with a "
                 "reason");
      }
    }

    // R9: mutex members must be annotated capabilities.
    if (scope_r9 && t.record_scope && t.kind == Token::Kind::kIdent) {
      const bool std_mutex =
          (t.text == "mutex" || t.text == "recursive_mutex" ||
           t.text == "shared_mutex" || t.text == "timed_mutex") &&
          i >= 3 && toks[i - 1].text == ":" && toks[i - 2].text == ":" &&
          toks[i - 3].text == "std";
      const bool pd_mutex = t.text == "Mutex" && i >= 3 &&
                            toks[i - 1].text == ":" &&
                            toks[i - 2].text == ":" && toks[i - 3].text == "pd";
      if ((std_mutex || pd_mutex) && i + 1 < toks.size() &&
          toks[i + 1].kind == Token::Kind::kIdent) {
        const std::string& name = toks[i + 1].text;
        const bool is_member =
            i + 2 < toks.size() &&
            (toks[i + 2].text == ";" || toks[i + 2].text == "{" ||
             toks[i + 2].text == "=");
        if (is_member && std_mutex) {
          emit("R9", toks[i + 1].line, name,
               "raw std::" + t.text + " member '" + name +
                   "'; declare it pd::Mutex (common/annotations.h) so Clang "
                   "Thread Safety Analysis can track the capability");
        } else if (is_member && pd_mutex &&
                   annotated_mutexes.count(name) == 0) {
          emit("R9", toks[i + 1].line, name,
               "mutex member '" + name +
                   "' is referenced by no lock annotation; mark the state "
                   "it guards with PD_GUARDED_BY(" +
                   name + ") (or PD_REQUIRES/PD_ACQUIRE on the accessors)");
        }
      }
    }

    // R3: unit suffix on angle/power double fields, parameters and
    // namespace-scope variables (the named constants a config field folds
    // into). Every declarator of a comma-chained declaration is checked. A
    // declarator followed by `(` is a function and one followed by `:` a
    // qualified definition (`double Tracker::azimuth(`), so neither is.
    if (t.text == "double") {
      std::size_t j = i + 1;
      while (j < toks.size() &&
             (toks[j].text == "*" || toks[j].text == "&" ||
              toks[j].text == "const" || toks[j].text == "volatile"))
        ++j;
      if (j < toks.size() && toks[j].kind == Token::Kind::kIdent &&
          !(j + 1 < toks.size() &&
            (toks[j + 1].text == "(" || toks[j + 1].text == ":"))) {
        const bool is_param = t.paren_depth > 0 && !t.control_paren;
        const bool is_field =
            t.paren_depth == 0 && (t.record_scope || t.namespace_scope);
        if (is_param || is_field) {
          auto check_declarator = [&](const Token& decl) {
            const auto words = identifier_words(decl.text);
            if (has_unit_stem(words) && !has_unit_suffix(words)) {
              emit("R3", decl.line, decl.text,
                   std::string("double ") +
                       (is_param           ? "parameter"
                        : t.record_scope ? "field"
                                           : "namespace-scope variable") +
                       " '" + decl.text +
                       "' holds an angle/power but lacks a _rad/_deg/_dbm/"
                       "_db/_dbi/_mw suffix");
            }
          };
          check_declarator(toks[j]);
          // Comma-chained declarators (`double theta, phi = 0.0;`) exist
          // only for fields and namespace-scope variables -- each function
          // parameter re-states its type, so the outer loop already sees
          // it. Walk the declaration at top nesting level; each `,`
          // introduces another declarator until the terminating `;`.
          if (is_field) {
            int depth = 0;
            for (std::size_t k = j + 1; k < toks.size(); ++k) {
              const std::string& s = toks[k].text;
              if (toks[k].kind != Token::Kind::kPunct) continue;
              if (s == "(" || s == "[" || s == "{") ++depth;
              if (s == ")" || s == "]" || s == "}") --depth;
              if (s == ";" && depth == 0) break;
              if (s == "," && depth == 0) {
                std::size_t n = k + 1;
                while (n < toks.size() &&
                       (toks[n].text == "*" || toks[n].text == "&" ||
                        toks[n].text == "const" || toks[n].text == "volatile"))
                  ++n;
                if (n >= toks.size() || toks[n].kind != Token::Kind::kIdent)
                  break;
                if (!(n + 1 < toks.size() && toks[n + 1].text == "("))
                  check_declarator(toks[n]);
                k = n;
              }
            }
          }
        }
      }
    }
  }
  return out;
}

}  // namespace polarlint
