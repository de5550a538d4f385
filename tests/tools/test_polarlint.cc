// Self-tests for tools/polarlint: each rule demonstrated both firing and
// suppressed, plus the tokenizer / comment-stripper corner cases the rules
// depend on. The fixture sources are deliberately tiny translation units.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "polarlint.h"

namespace polarlint {
namespace {

std::vector<std::string> rules_of(const std::vector<Violation>& vs) {
  std::vector<std::string> r;
  for (const auto& v : vs) r.push_back(v.rule);
  std::sort(r.begin(), r.end());
  return r;
}

int count_rule(const std::vector<Violation>& vs, const std::string& rule) {
  int n = 0;
  for (const auto& v : vs)
    if (v.rule == rule) ++n;
  return n;
}

// ---------------------------------------------------------------------------
// R1: raw fmod on angle expressions
// ---------------------------------------------------------------------------

TEST(R1Fmod, FiresOnAngleExpression) {
  const auto vs = lint_source("src/foo.cc",
                              "double a = std::fmod(theta, kTwoPi);\n");
  ASSERT_EQ(count_rule(vs, "R1"), 1);
  EXPECT_EQ(vs[0].line, 1);
}

TEST(R1Fmod, FiresOnDegreeFold) {
  const auto vs =
      lint_source("src/foo.cc", "double d = fmod(heading_deg, 360.0);\n");
  EXPECT_EQ(count_rule(vs, "R1"), 1);
}

TEST(R1Fmod, SilentOnNonAngleQuantity) {
  // A time cycle is not an angle; the evidence scan must not fire.
  const auto vs =
      lint_source("src/foo.cc", "const double cycle = std::fmod(t_s, 6.0);\n");
  EXPECT_EQ(count_rule(vs, "R1"), 0);
}

TEST(R1Fmod, ExemptInsideAnglesHeader) {
  const std::string src = "double r = std::fmod(rad, kTwoPi);\n";
  EXPECT_EQ(count_rule(lint_source("src/common/angles.h", src), "R1"), 0);
  EXPECT_EQ(count_rule(lint_source("src/common/angles.cc", src), "R1"), 0);
  EXPECT_EQ(count_rule(lint_source("src/core/other.cc", src), "R1"), 1);
}

TEST(R1Fmod, SuppressedSameLine) {
  const auto vs = lint_source(
      "src/foo.cc",
      "double a = std::fmod(theta, kPi);  // polarlint-allow(R1): legacy\n");
  EXPECT_EQ(count_rule(vs, "R1"), 0);
}

TEST(R1Fmod, SuppressedFromPrecedingLine) {
  const auto vs = lint_source(
      "src/foo.cc",
      "// polarlint-allow(R1): matches the paper's literal formula\n"
      "double a = std::fmod(theta, kPi);\n");
  EXPECT_EQ(count_rule(vs, "R1"), 0);
}

TEST(R1Fmod, SuppressionDoesNotLeakToLaterLines) {
  const auto vs = lint_source(
      "src/foo.cc",
      "// polarlint-allow(R1): only covers the next line\n"
      "double a = std::fmod(theta, kPi);\n"
      "double b = std::fmod(phase, kTwoPi);\n");
  EXPECT_EQ(count_rule(vs, "R1"), 1);
}

// ---------------------------------------------------------------------------
// R2: raw dB math
// ---------------------------------------------------------------------------

TEST(R2Db, FiresOnLog10) {
  const auto vs = lint_source(
      "src/foo.cc", "const double dbm = 10.0 * std::log10(mw);\n");
  EXPECT_EQ(count_rule(vs, "R2"), 1);
}

TEST(R2Db, FiresOnPowTen) {
  EXPECT_EQ(count_rule(lint_source("src/foo.cc",
                                   "double r = std::pow(10.0, db / 10.0);\n"),
                       "R2"),
            1);
  EXPECT_EQ(count_rule(lint_source("src/foo.cc",
                                   "double amp = pow(10, -xpd / 20.0);\n"),
                       "R2"),
            1);
}

TEST(R2Db, SilentOnOtherPow) {
  const auto vs = lint_source(
      "src/foo.cc", "const double pattern = std::pow(c, n);\n");
  EXPECT_EQ(count_rule(vs, "R2"), 0);
}

TEST(R2Db, ExemptInsideUnitsHeader) {
  const std::string src = "inline double db_to_ratio(double db) "
                          "{ return std::pow(10.0, db / 10.0); }\n";
  EXPECT_EQ(count_rule(lint_source("src/common/units.h", src), "R2"), 0);
  EXPECT_EQ(count_rule(lint_source("src/em/foo.cc", src), "R2"), 1);
}

TEST(R2Db, Suppressed) {
  const auto vs = lint_source(
      "tests/foo.cc",
      "// polarlint-allow(R2): pins the raw formula against units.h\n"
      "EXPECT_NEAR(10.0 * std::log10(p), -30.0, 1e-9);\n");
  EXPECT_EQ(count_rule(vs, "R2"), 0);
}

// ---------------------------------------------------------------------------
// R3: unit suffixes on angle/power fields and parameters
// ---------------------------------------------------------------------------

TEST(R3Suffix, FiresOnUnsuffixedField) {
  const auto vs = lint_source("src/foo.h",
                              "struct Pen {\n"
                              "  double elevation = 0.0;\n"
                              "};\n");
  ASSERT_EQ(count_rule(vs, "R3"), 1);
  EXPECT_EQ(vs[0].key, "elevation");
  EXPECT_EQ(vs[0].line, 2);
}

TEST(R3Suffix, AcceptsSuffixedField) {
  const auto vs = lint_source("src/foo.h",
                              "struct Pen {\n"
                              "  double elevation_rad = 0.0;\n"
                              "  double gain_dbi = 8.0;\n"
                              "  double power_dbm = -18.0;\n"
                              "  double variance_rad2 = 0.1;\n"
                              "};\n");
  EXPECT_EQ(count_rule(vs, "R3"), 0);
}

TEST(R3Suffix, FiresOnUnsuffixedParameter) {
  const auto vs = lint_source(
      "src/foo.h", "double rotation_angle(double alpha, double azimuth);\n");
  EXPECT_EQ(count_rule(vs, "R3"), 2);
}

TEST(R3Suffix, SilentOnLocalsLoopVarsAndFunctions) {
  const auto vs = lint_source("src/foo.cc",
                              "double rotation_angle() {\n"
                              "  double phase = 0.0;\n"  // local: not checked
                              "  for (double beta = 0.0; beta < 1.0; beta += 0.1) phase += beta;\n"
                              "  return phase;\n"
                              "}\n");
  EXPECT_EQ(count_rule(vs, "R3"), 0);
}

TEST(R3Suffix, SilentOnNonUnitNames) {
  const auto vs = lint_source("src/foo.h",
                              "struct Cfg {\n"
                              "  double block_m = 0.004;\n"
                              "  double hyperbola_sharpness = 6.0;\n"
                              "};\n");
  EXPECT_EQ(count_rule(vs, "R3"), 0);
}

TEST(R3Suffix, PrivateMemberTrailingUnderscore) {
  EXPECT_EQ(count_rule(lint_source("src/foo.h",
                                   "class W {\n double azimuth_;\n};\n"),
                       "R3"),
            1);
  EXPECT_EQ(count_rule(lint_source("src/foo.h",
                                   "class W {\n double azimuth_rad_;\n};\n"),
                       "R3"),
            0);
}

TEST(R3Suffix, Suppressed) {
  const auto vs = lint_source(
      "src/foo.h",
      "struct N {\n"
      "  // polarlint-allow(R3): dimensionless linear multiplier\n"
      "  double modulation_snr_gain = 1.0;\n"
      "};\n");
  EXPECT_EQ(count_rule(vs, "R3"), 0);
}

// ---------------------------------------------------------------------------
// R4: determinism guard
// ---------------------------------------------------------------------------

TEST(R4Rng, FiresOnRandSrandRandomDevice) {
  EXPECT_EQ(count_rule(lint_source("src/foo.cc", "int x = std::rand();\n"),
                       "R4"),
            1);
  EXPECT_EQ(count_rule(lint_source("src/foo.cc", "srand(42);\n"), "R4"), 1);
  EXPECT_EQ(count_rule(lint_source("src/foo.cc",
                                   "std::mt19937 g{std::random_device{}()};\n"),
                       "R4"),
            1);
}

TEST(R4Rng, SilentOnSeededEngines) {
  const auto vs = lint_source(
      "src/foo.cc", "Rng rng(splitmix64(base, index));  // seeded, fine\n");
  EXPECT_EQ(count_rule(vs, "R4"), 0);
}

TEST(R4Rng, ExemptInRngAndSeedHeaders) {
  const std::string src = "std::random_device rd;\n";
  EXPECT_EQ(count_rule(lint_source("src/common/rng.h", src), "R4"), 0);
  EXPECT_EQ(count_rule(lint_source("src/common/seed.h", src), "R4"), 0);
  EXPECT_EQ(count_rule(lint_source("src/eval/harness.cc", src), "R4"), 1);
}

TEST(R4Rng, Suppressed) {
  const auto vs = lint_source(
      "src/foo.cc",
      "int x = std::rand();  // polarlint-allow(R4): fixture needs libc rand\n");
  EXPECT_EQ(count_rule(vs, "R4"), 0);
}

// ---------------------------------------------------------------------------
// R5: hot-path container discipline
// ---------------------------------------------------------------------------

TEST(R5HotPath, FiresOnlyInTaggedFiles) {
  const std::string use = "#include <unordered_map>\n"
                          "std::unordered_map<int, double> scores;\n";
  EXPECT_EQ(count_rule(lint_source("src/foo.cc", use), "R5"), 0);
  const std::string tagged = "// polarlint: hot-path\n" + use;
  EXPECT_EQ(count_rule(lint_source("src/foo.cc", tagged), "R5"), 2);
}

TEST(R5HotPath, Suppressed) {
  const auto vs = lint_source(
      "src/foo.cc",
      "// polarlint: hot-path\n"
      "// polarlint-allow(R5): cold setup path, sized once at init\n"
      "std::unordered_map<int, double> setup;\n");
  EXPECT_EQ(count_rule(vs, "R5"), 0);
}

TEST(R5HotPath, TagDetection) {
  EXPECT_TRUE(is_hot_path_tagged("// polarlint: hot-path\nint x;\n"));
  EXPECT_FALSE(is_hot_path_tagged("int x;  // not tagged\n"));
}

// ---------------------------------------------------------------------------
// Directives
// ---------------------------------------------------------------------------

TEST(Directives, ReasonIsMandatory) {
  const auto vs = lint_source(
      "src/foo.cc", "double a = std::fmod(theta, kPi);  // polarlint-allow(R1)\n");
  // The allow is malformed, so R1 still fires *and* the directive errors.
  EXPECT_EQ(count_rule(vs, "R1"), 1);
  EXPECT_EQ(count_rule(vs, "DIRECTIVE"), 1);
}

TEST(Directives, WrappedReasonStillCoversNextStatement) {
  // A reason long enough to wrap onto a second comment line must still
  // reach the first code-bearing line below the directive.
  const auto vs = lint_source(
      "src/server/foo.cc",
      "// polarlint-allow(R7): push-to-commit latency measurement only;\n"
      "// the timestamp never feeds the decode.\n"
      "const auto now = Clock::now();\n");
  EXPECT_EQ(count_rule(vs, "R7"), 0);
}

TEST(Directives, CoverageStopsAtFirstCodeLine) {
  const auto vs = lint_source(
      "src/server/foo.cc",
      "// polarlint-allow(R7): covers only the line below\n"
      "const auto a = Clock::now();\n"
      "const auto b = Clock::now();\n");
  EXPECT_EQ(count_rule(vs, "R7"), 1);
}

TEST(Directives, UnknownRuleRejected) {
  const auto vs = lint_source(
      "src/foo.cc", "int x = 0;  // polarlint-allow(R12): no such rule\n");
  EXPECT_EQ(count_rule(vs, "DIRECTIVE"), 1);
}

TEST(Directives, WrongRuleDoesNotSuppress) {
  const auto vs = lint_source(
      "src/foo.cc",
      "double a = std::fmod(theta, kPi);  // polarlint-allow(R2): wrong rule\n");
  EXPECT_EQ(count_rule(vs, "R1"), 1);
}

// ---------------------------------------------------------------------------
// R1 statement-level evidence (the multi-line fmod fix)
// ---------------------------------------------------------------------------

TEST(R1Fmod, MultiLineStatementEvidence) {
  // The angle identifier sits on a different physical line than fmod; a
  // per-line scan missed this, the statement-range scan must not.
  const auto vs = lint_source("src/foo.cc",
                              "double a = std::fmod(\n"
                              "    theta_rad + offset,\n"
                              "    kTwoPi);\n");
  ASSERT_EQ(count_rule(vs, "R1"), 1);
  EXPECT_EQ(vs[0].line, 1);
}

TEST(R1Fmod, MultiLineNonAngleStaysSilent) {
  const auto vs = lint_source("src/foo.cc",
                              "double cycle = std::fmod(\n"
                              "    t_s + warmup_s,\n"
                              "    6.0);\n");
  EXPECT_EQ(count_rule(vs, "R1"), 0);
}

TEST(R1Fmod, EvidenceDoesNotCrossStatementBoundary) {
  // theta in the previous statement must not indict the fmod on a time.
  const auto vs = lint_source("src/foo.cc",
                              "double theta = 0.0;\n"
                              "double cycle = std::fmod(t_s, 6.0);\n");
  EXPECT_EQ(count_rule(vs, "R1"), 0);
}

// ---------------------------------------------------------------------------
// R3 comma-chained declarators (the PR 8 limitation fix)
// ---------------------------------------------------------------------------

TEST(R3Suffix, CommaChainedFieldsAllChecked) {
  const auto vs = lint_source("src/foo.h",
                              "struct P {\n"
                              "  double azimuth, elevation;\n"
                              "};\n");
  ASSERT_EQ(count_rule(vs, "R3"), 2);
  EXPECT_EQ(vs[0].key, "azimuth");
  EXPECT_EQ(vs[1].key, "elevation");
}

TEST(R3Suffix, CommaChainedSuffixedFieldsPass) {
  const auto vs = lint_source("src/foo.h",
                              "struct P {\n"
                              "  double azimuth_rad, elevation_rad = 0.0;\n"
                              "};\n");
  EXPECT_EQ(count_rule(vs, "R3"), 0);
}

TEST(R3Suffix, ParameterTypeNameIsNotADeclarator) {
  // After a comma in a parameter list the next token is a *type*; treating
  // it as a chained declarator produced false positives (RotationSense).
  const auto vs = lint_source(
      "src/foo.h", "void step(double step_rad, RotationSense sense);\n");
  EXPECT_EQ(count_rule(vs, "R3"), 0);
}

// ---------------------------------------------------------------------------
// R3 at namespace scope: a field folded into a named constant keeps its
// suffix
// ---------------------------------------------------------------------------

TEST(R3Suffix, FiresOnUnsuffixedNamespaceConstant) {
  const auto vs = lint_source("src/foo.h",
                              "namespace pd::core {\n"
                              "inline constexpr double kDeltaBeta = 0.087;\n"
                              "}  // namespace pd::core\n");
  ASSERT_EQ(count_rule(vs, "R3"), 1);
  EXPECT_EQ(vs[0].key, "kDeltaBeta");
  EXPECT_EQ(vs[0].line, 2);
}

TEST(R3Suffix, FiresOnUnsuffixedAnonymousNamespaceConstant) {
  const auto vs = lint_source("src/foo.cc",
                              "namespace {\n"
                              "const double kGatePower = 0.5;\n"
                              "}  // namespace\n");
  ASSERT_EQ(count_rule(vs, "R3"), 1);
  EXPECT_EQ(vs[0].key, "kGatePower");
}

TEST(R3Suffix, SilentOnQualifiedDefinitionsAndFunctionLocals) {
  const auto vs = lint_source("src/foo.cc",
                              "namespace pd {\n"
                              "double RotationTracker::initial_azimuth_rad() {\n"
                              "  const double mismatch = 0.1;\n"
                              "  return mismatch;\n"
                              "}\n"
                              "}  // namespace pd\n");
  EXPECT_EQ(count_rule(vs, "R3"), 0);
}

// ---------------------------------------------------------------------------
// R6: deterministic pruning in core/ and server/
// ---------------------------------------------------------------------------

TEST(R6Sort, FiresOnFloatKeyLambdaWithoutTieBreak) {
  const auto vs = lint_source(
      "src/core/foo.cc",
      "std::nth_element(idx.begin(), idx.begin() + k, idx.end(),\n"
      "    [&](int a, int b) { return logp[a] > logp[b]; });\n");
  ASSERT_EQ(count_rule(vs, "R6"), 1);
  EXPECT_EQ(vs[0].line, 1);
}

TEST(R6Sort, AcceptsIndexTieBrokenLambda) {
  const auto vs = lint_source(
      "src/core/foo.cc",
      "std::nth_element(idx.begin(), idx.begin() + k, idx.end(),\n"
      "    [&](int a, int b) {\n"
      "      return logp[a] > logp[b] || (logp[a] == logp[b] && a < b);\n"
      "    });\n");
  EXPECT_EQ(count_rule(vs, "R6"), 0);
}

TEST(R6Sort, ResolvesNamedComparatorInSameFile) {
  const std::string no_tie =
      "const auto better = [&](int x, int y) {\n"
      "  return logp[x] > logp[y];\n"
      "};\n"
      "std::sort(order.begin(), order.end(), better);\n";
  EXPECT_EQ(count_rule(lint_source("src/core/foo.cc", no_tie), "R6"), 1);
  const std::string tied =
      "const auto better = [&](int x, int y) {\n"
      "  return logp[x] > logp[y] || (logp[x] == logp[y] && x < y);\n"
      "};\n"
      "std::sort(order.begin(), order.end(), better);\n";
  EXPECT_EQ(count_rule(lint_source("src/core/foo.cc", tied), "R6"), 0);
}

TEST(R6Sort, FiresOnDefaultComparatorOverFloatKeys) {
  const auto vs = lint_source(
      "src/core/foo.cc", "std::sort(scores.begin(), scores.end());\n");
  EXPECT_EQ(count_rule(vs, "R6"), 1);
}

TEST(R6Sort, SilentOnIntegerKeysAndOutsideScope) {
  // Integer ordering has no ties-by-representation hazard.
  EXPECT_EQ(count_rule(lint_source("src/core/foo.cc",
                                   "std::sort(ids.begin(), ids.end());\n"),
                       "R6"),
            0);
  // em/ is outside the decode-critical scope.
  EXPECT_EQ(count_rule(lint_source("src/em/foo.cc",
                                   "std::sort(scores.begin(), scores.end());\n"),
                       "R6"),
            0);
}

TEST(R6Sort, UnorderedContainerBannedInScope) {
  const std::string use = "std::unordered_set<int> seen;\n";
  EXPECT_EQ(count_rule(lint_source("src/core/foo.cc", use), "R6"), 1);
  EXPECT_EQ(count_rule(lint_source("src/server/foo.cc", use), "R6"), 1);
  EXPECT_EQ(count_rule(lint_source("src/baselines/foo.cc", use), "R6"), 1);
  EXPECT_EQ(count_rule(lint_source("src/common/beam.cc", use), "R6"), 1);
  EXPECT_EQ(count_rule(lint_source("src/common/stats.cc", use), "R6"), 0);
}

TEST(R6Sort, Suppressed) {
  const auto vs = lint_source(
      "src/core/foo.cc",
      "// polarlint-allow(R6): diagnostic-only ordering, never decoded\n"
      "std::sort(scores.begin(), scores.end());\n");
  EXPECT_EQ(count_rule(vs, "R6"), 0);
}

// ---------------------------------------------------------------------------
// R7: clock reads outside the observability layer
// ---------------------------------------------------------------------------

TEST(R7Clock, FiresInDecodeChain) {
  const auto vs = lint_source(
      "src/core/foo.cc",
      "const auto t0 = std::chrono::steady_clock::now();\n");
  ASSERT_EQ(count_rule(vs, "R7"), 1);
  EXPECT_EQ(vs[0].line, 1);
}

TEST(R7Clock, FiresOnAliasedClock) {
  const auto vs =
      lint_source("src/server/foo.cc", "const auto now = Clock::now();\n");
  EXPECT_EQ(count_rule(vs, "R7"), 1);
}

TEST(R7Clock, ExemptLayers) {
  const std::string src = "const auto t = std::chrono::steady_clock::now();\n";
  EXPECT_EQ(count_rule(lint_source("src/obs/tracer.cc", src), "R7"), 0);
  EXPECT_EQ(count_rule(lint_source("tests/obs/test_tracer.cc", src), "R7"), 0);
  EXPECT_EQ(count_rule(lint_source("bench/bench_foo.cc", src), "R7"), 0);
  EXPECT_EQ(count_rule(lint_source("src/common/thread_pool.h", src), "R7"), 0);
  // Substrings of exempt components do not smuggle the exemption.
  EXPECT_EQ(count_rule(lint_source("src/observations/foo.cc", src), "R7"), 1);
}

TEST(R7Clock, SimTimeOnlyObsModulesLoseTheExemption) {
  // The rolling SLO window and the structured logger advance on
  // observation timestamps by contract (DESIGN.md section 17): a clock
  // read there is a determinism bug, so they are carved out of the
  // blanket obs/ exemption.
  const std::string src = "const auto t = std::chrono::steady_clock::now();\n";
  EXPECT_EQ(count_rule(lint_source("src/obs/rolling.cc", src), "R7"), 1);
  EXPECT_EQ(count_rule(lint_source("src/obs/rolling.h", src), "R7"), 1);
  EXPECT_EQ(count_rule(lint_source("src/obs/log.cc", src), "R7"), 1);
  EXPECT_EQ(count_rule(lint_source("src/obs/log.h", src), "R7"), 1);
  // The rest of the obs layer keeps it.
  EXPECT_EQ(count_rule(lint_source("src/obs/metrics.cc", src), "R7"), 0);
}

TEST(R7Clock, SilentOnNonClockNow) {
  // now() on something that is not a clock (e.g. a span helper) is fine.
  const auto vs = lint_source("src/core/foo.cc", "auto x = Span::now();\n");
  EXPECT_EQ(count_rule(vs, "R7"), 0);
}

TEST(R7Clock, Suppressed) {
  const auto vs = lint_source(
      "src/server/foo.cc",
      "// polarlint-allow(R7): latency measurement, never feeds decode\n"
      "const auto now = Clock::now();\n");
  EXPECT_EQ(count_rule(vs, "R7"), 0);
}

// ---------------------------------------------------------------------------
// R8: include layering DAG
// ---------------------------------------------------------------------------

TEST(R8Layering, FiresOnBackEdge) {
  const auto vs =
      lint_source("src/em/tag.cc", "#include \"core/streaming_decoder.h\"\n");
  ASSERT_EQ(count_rule(vs, "R8"), 1);
  EXPECT_EQ(vs[0].key, "core/streaming_decoder.h");
}

TEST(R8Layering, AcceptsDownwardAndSelfEdges) {
  const auto vs = lint_source("src/server/session_server.cc",
                              "#include \"server/session_server.h\"\n"
                              "#include \"core/streaming_decoder.h\"\n"
                              "#include \"common/thread_pool.h\"\n"
                              "#include \"obs/metrics.h\"\n");
  EXPECT_EQ(count_rule(vs, "R8"), 0);
}

TEST(R8Layering, EqualRankSiblingsMayNotIncludeEachOther) {
  const auto vs =
      lint_source("src/channel/foo.cc", "#include \"handwriting/wrist.h\"\n");
  EXPECT_EQ(count_rule(vs, "R8"), 1);
}

TEST(R8Layering, AnnotationsHeaderReachableFromObs) {
  const auto vs =
      lint_source("src/obs/tracer.cc", "#include \"common/annotations.h\"\n");
  EXPECT_EQ(count_rule(vs, "R8"), 0);
}

TEST(R8Layering, IgnoresSystemTestAndUnknownIncludes) {
  EXPECT_EQ(count_rule(lint_source("src/em/foo.cc",
                                   "#include <algorithm>\n"
                                   "#include \"polarlint.h\"\n"),
                       "R8"),
            0);
  // Non-src/ files (tests, bench, tools) may include anything.
  EXPECT_EQ(count_rule(lint_source("tests/em/test_tag.cc",
                                   "#include \"core/streaming_decoder.h\"\n"),
                       "R8"),
            0);
}

TEST(R8Layering, CommentedOutIncludeIgnored) {
  const auto vs =
      lint_source("src/em/tag.cc", "// #include \"core/streaming_decoder.h\"\n");
  EXPECT_EQ(count_rule(vs, "R8"), 0);
}

TEST(R8Layering, Suppressed) {
  const auto vs = lint_source(
      "src/em/tag.cc",
      "// polarlint-allow(R8): transitional edge, tracked in ROADMAP\n"
      "#include \"core/streaming_decoder.h\"\n");
  EXPECT_EQ(count_rule(vs, "R8"), 0);
}

// ---------------------------------------------------------------------------
// R9: mutex members must be annotated capabilities
// ---------------------------------------------------------------------------

TEST(R9Mutex, FiresOnRawStdMutexMember) {
  const auto vs = lint_source("src/server/foo.h",
                              "struct S {\n"
                              "  std::mutex mu;\n"
                              "};\n");
  ASSERT_EQ(count_rule(vs, "R9"), 1);
  EXPECT_EQ(vs[0].key, "mu");
}

TEST(R9Mutex, AcceptsAnnotatedPdMutex) {
  const auto vs = lint_source("src/server/foo.h",
                              "struct S {\n"
                              "  pd::Mutex mu;\n"
                              "  int queue PD_GUARDED_BY(mu);\n"
                              "};\n");
  EXPECT_EQ(count_rule(vs, "R9"), 0);
}

TEST(R9Mutex, FiresOnPdMutexThatGuardsNothing) {
  const auto vs = lint_source("src/server/foo.h",
                              "struct S {\n"
                              "  pd::Mutex mu;\n"
                              "  int queue;\n"
                              "};\n");
  ASSERT_EQ(count_rule(vs, "R9"), 1);
  EXPECT_EQ(vs[0].key, "mu");
}

TEST(R9Mutex, RequiresAnnotationCountsAsReference) {
  const auto vs = lint_source("src/server/foo.h",
                              "struct S {\n"
                              "  pd::Mutex mu;\n"
                              "  void drain() PD_REQUIRES(mu);\n"
                              "};\n");
  EXPECT_EQ(count_rule(vs, "R9"), 0);
}

TEST(R9Mutex, LocalMutexAndOutOfScopeFilesIgnored) {
  // A local (non-member) mutex carries no capability contract.
  EXPECT_EQ(count_rule(lint_source("src/server/foo.cc",
                                   "void f() { std::mutex local; }\n"),
                       "R9"),
            0);
  // tools/ and tests/ are outside R9's src/ scope.
  EXPECT_EQ(count_rule(lint_source("tools/foo/bar.h",
                                   "struct S {\n  std::mutex mu;\n};\n"),
                       "R9"),
            0);
  // The wrapper definition itself is exempt.
  EXPECT_EQ(count_rule(lint_source("src/common/annotations.h",
                                   "class Mutex {\n  std::mutex mu_;\n};\n"),
                       "R9"),
            0);
}

TEST(R9Mutex, Suppressed) {
  const auto vs = lint_source(
      "src/server/foo.h",
      "struct S {\n"
      "  // polarlint-allow(R9): wraps a C library handle, annotated later\n"
      "  std::mutex mu;\n"
      "};\n");
  EXPECT_EQ(count_rule(vs, "R9"), 0);
}

// ---------------------------------------------------------------------------
// Tokenizer / comment stripper
// ---------------------------------------------------------------------------

TEST(Tokenizer, CommentsAndStringsDoNotTrigger) {
  const auto vs = lint_source(
      "src/foo.cc",
      "// mention of std::fmod(theta) and std::rand() in a comment\n"
      "/* std::pow(10.0, db / 10.0) in a block comment */\n"
      "const char* s = \"std::fmod(theta, kPi)\";\n");
  EXPECT_EQ(rules_of(vs), std::vector<std::string>{});
}

TEST(Tokenizer, BlockCommentSpansLines) {
  const auto vs = lint_source("src/foo.cc",
                              "/* start\n"
                              "   std::rand() inside\n"
                              "   end */ int x = 0;\n");
  EXPECT_EQ(count_rule(vs, "R4"), 0);
}

TEST(Tokenizer, EscapedQuoteInString) {
  const auto vs = lint_source(
      "src/foo.cc", "const char* s = \"a\\\"b\"; int y = std::rand();\n");
  EXPECT_EQ(count_rule(vs, "R4"), 1);  // the rand after the string still seen
}

TEST(Tokenizer, IdentifierWords) {
  using detail::identifier_words;
  EXPECT_EQ(identifier_words("kTwoPi"),
            (std::vector<std::string>{"k", "two", "pi"}));
  EXPECT_EQ(identifier_words("alpha_e_rad"),
            (std::vector<std::string>{"alpha", "e", "rad"}));
  EXPECT_EQ(identifier_words("elevation_offset_rad_"),
            (std::vector<std::string>{"elevation", "offset", "rad"}));
}

}  // namespace
}  // namespace polarlint
