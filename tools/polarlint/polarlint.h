// polarlint: PolarDraw's domain-aware static-analysis pass.
//
// The decode chain's correctness rests on a handful of repo-wide conventions
// that ordinary compilers cannot check: phase lives on the circle [0, 2*pi)
// and is only ever folded through common/angles.h; power lives in dBm and is
// only ever converted through common/units.h; randomness flows down from
// explicitly derived seeds (common/rng.h + common/seed.h); hot-path files
// avoid node-based hash maps; decoded output is a pure function of the
// observation stream (no stdlib-dependent tie partitioning, no wall-clock
// reads); and mutex-holding subsystems carry Clang Thread Safety Analysis
// annotations. polarlint tokenizes each translation unit (comments and
// literals stripped, statements and symbol references resolved over the
// token stream) and enforces:
//
//   R1  no raw std::fmod / angle folding outside common/angles.h -- callers
//       must use wrap_2pi / wrap_pi / fold_pi / angle_diff. A bare fmod on a
//       non-angle quantity (e.g. a time cycle) is fine; the rule fires only
//       when the enclosing *statement* (which may span physical lines)
//       mentions angle-ish identifiers.
//   R2  no raw std::pow(10.0, x / 10|20) or log10-based dB math outside
//       common/units.h -- use dbm_to_mw / db_to_ratio / db_to_amplitude_ratio
//       / mw_to_dbm / ratio_to_db.
//   R3  every double struct field or function parameter whose name says it
//       holds an angle or a power must carry a _rad / _deg / _dbm / _db /
//       _dbi / _mw suffix. Every declarator of a comma-chained declaration
//       is checked.
//   R4  no std::rand / srand / std::random_device outside common/rng.h and
//       common/seed.h (determinism guard: seeds always derive from the
//       harness, never from entropy or global state).
//   R5  no std::unordered_map in files tagged `// polarlint: hot-path`
//       (node-based maps wreck the decode loop; dense arrays keep it fast).
//   R6  determinism of pruning in core/ and server/: std::sort /
//       std::stable_sort / std::partial_sort / std::nth_element over
//       float/double keys must use an index-tie-broken comparator (the PR-7
//       stdlib-independence lesson: how ties partition is implementation
//       defined, so survivor *sets* must be a pure function of the values).
//       Named comparators are resolved to their definition in the same
//       file. Unordered containers (std::unordered_{map,set,...}) are
//       banned outright in these directories -- iteration order must never
//       feed decoded output.
//   R7  no std::chrono::*_clock::now() outside obs/, common/thread_pool.h
//       and bench/ -- a clock read anywhere else in the decode chain
//       silently breaks stream/batch bit-identity. Measurement-only reads
//       (latency histograms, stage timers) are suppressed at the site with
//       a reason.
//   R8  include layering, checked from the real include graph against the
//       declared DAG (DESIGN.md section 15): obs < common < em <
//       {channel, handwriting} < rfid < {core, recognition, sim, baselines}
//       < eval < server. A src/ file may include only its own directory and
//       strictly lower layers; obs is reachable from all.
//   R9  every std::mutex-family member in src/ must be a pd::Mutex
//       (common/annotations.h) and must be referenced by at least one lock
//       annotation (PD_GUARDED_BY / PD_REQUIRES / PD_ACQUIRE / ...), so
//       Clang Thread Safety Analysis actually has a capability to track.
//
// Any finding can be suppressed at the site with an allow comment,
//     polarlint-allow(R4): seeded fuzz corpus
// style: the rule in parens, a mandatory reason after the colon, on the
// same line as the finding or the line directly above.
// Known limitations (deliberate, it is a tokenizer not a frontend):
// comparator resolution (R6) only sees definitions in the same translation
// unit, and R8 only classifies quoted project includes.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace polarlint {

struct Violation {
  std::string rule;     // "R1".."R9", or "DIRECTIVE" for malformed directives
  std::string path;     // file path as given to lint_source
  int line = 0;         // 1-based
  std::string key;      // rule-specific stable payload (identifier or line)
  std::string message;  // human-readable explanation
};

/// Lints one translation unit. `path` is used for reporting and the
/// per-file exemptions (common/angles.h may fmod, common/units.h may
/// pow10, common/rng.h + common/seed.h may touch entropy).
std::vector<Violation> lint_source(std::string_view path, std::string_view content);

/// True if `content` carries the `// polarlint: hot-path` tag (R5 scope).
bool is_hot_path_tagged(std::string_view content);

namespace detail {

/// One physical line split into executable text and comment text: string and
/// character literal contents are blanked in `code` (delimiters kept), and
/// comment bodies (// and /* */, including continuation lines) land in
/// `comment`.
struct SplitLine {
  std::string code;
  std::string comment;
};

/// Comment/string stripper; exposed for the self-tests.
std::vector<SplitLine> split_lines(std::string_view content);

/// Splits an identifier into lowercase words on underscores and camelCase
/// boundaries: "kTwoPi" -> {"k", "two", "pi"}, "alpha_e_rad" ->
/// {"alpha", "e", "rad"}. Trailing underscores (private members) ignored.
std::vector<std::string> identifier_words(std::string_view name);

}  // namespace detail

}  // namespace polarlint
