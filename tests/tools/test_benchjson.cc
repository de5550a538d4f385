// Tests for the benchjson JSON parser and the BENCH_*.json schema
// validator, including a round trip through the obs::JsonWriter that the
// bench binaries actually use to emit these files.
#include "json.h"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>

#include "obs/json_writer.h"
#include "obs/tracer.h"

namespace polardraw::benchjson {
namespace {

Value parse_ok(const std::string& text) {
  const ParseResult r = parse(text);
  EXPECT_TRUE(r.ok) << r.error;
  return r.root;
}

TEST(JsonParse, Scalars) {
  EXPECT_EQ(parse_ok("null").type, Value::Type::kNull);
  EXPECT_TRUE(parse_ok("true").boolean);
  EXPECT_FALSE(parse_ok("false").boolean);
  EXPECT_DOUBLE_EQ(parse_ok("42").number, 42.0);
  EXPECT_DOUBLE_EQ(parse_ok("-3.25").number, -3.25);
  EXPECT_DOUBLE_EQ(parse_ok("1.5e3").number, 1500.0);
  EXPECT_DOUBLE_EQ(parse_ok("6.02E-2").number, 0.0602);
  EXPECT_EQ(parse_ok("\"hi\"").string, "hi");
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse_ok(R"("a\"b\\c\/d\n\t")").string, "a\"b\\c/d\n\t");
  EXPECT_EQ(parse_ok(R"("A")").string, "A");
  // é encodes as the 2-byte UTF-8 sequence for e-acute.
  EXPECT_EQ(parse_ok(R"("é")").string, "\xc3\xa9");
}

TEST(JsonParse, ArraysAndNesting) {
  const Value v = parse_ok("[1, [2, 3], {\"k\": [4]}]");
  ASSERT_EQ(v.array.size(), 3u);
  EXPECT_DOUBLE_EQ(v.array[0].number, 1.0);
  ASSERT_EQ(v.array[1].array.size(), 2u);
  EXPECT_DOUBLE_EQ(v.array[1].array[1].number, 3.0);
  const Value* k = v.array[2].find("k");
  ASSERT_NE(k, nullptr);
  EXPECT_DOUBLE_EQ(k->array[0].number, 4.0);
}

TEST(JsonParse, ObjectKeepsFileOrderAndFindsMembers) {
  const Value v = parse_ok(R"({"zeta": 1, "alpha": 2})");
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.object.size(), 2u);
  EXPECT_EQ(v.object[0].first, "zeta");
  EXPECT_EQ(v.object[1].first, "alpha");
  ASSERT_NE(v.find("alpha"), nullptr);
  EXPECT_DOUBLE_EQ(v.find("alpha")->number, 2.0);
  EXPECT_EQ(v.find("missing"), nullptr);
  // find() on a non-object is a graceful nullptr, not UB.
  EXPECT_EQ(parse_ok("3").find("k"), nullptr);
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_FALSE(parse("").ok);
  EXPECT_FALSE(parse("{").ok);
  EXPECT_FALSE(parse("[1, 2").ok);
  EXPECT_FALSE(parse("\"unterminated").ok);
  EXPECT_FALSE(parse("{\"a\" 1}").ok);
  EXPECT_FALSE(parse("[1,]").ok);
  EXPECT_FALSE(parse("nul").ok);
  EXPECT_FALSE(parse("{} trailing").ok);
}

TEST(JsonParse, ErrorsCarryLineNumbers) {
  const ParseResult r = parse("{\n  \"a\": 1,\n  oops\n}");
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 3"), std::string::npos) << r.error;
}

TEST(JsonParse, RejectsRunawayNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(parse(deep).ok);
}

std::string valid_bench_doc() {
  return R"({
  "schema_version": 1,
  "name": "fig13",
  "git_sha": "0123abcd",
  "wall_s": 1.25,
  "config": {"reps_scale": 1, "threads": 8},
  "metrics": {"accuracy": 0.846},
  "counters": {"hmm.windows": 1200, "rfid.reports": 80961},
  "gauges": {"hmm.beam_occupancy_peak": 600},
  "stages": {
    "core.hmm_decode": {"count": 10, "total_s": 0.7, "mean_ms": 70,
                        "p50_ms": 68.6, "p95_ms": 126.5}
  }
})";
}

TEST(BenchSchema, ValidDocumentPasses) {
  const Value v = parse_ok(valid_bench_doc());
  EXPECT_TRUE(validate_bench_json(v).empty());
}

TEST(BenchSchema, MissingRequiredKeyFails) {
  for (const char* key :
       {"schema_version", "name", "git_sha", "wall_s", "config", "metrics",
        "counters", "gauges", "stages"}) {
    Value v = parse_ok(valid_bench_doc());
    std::erase_if(v.object,
                  [&](const auto& member) { return member.first == key; });
    EXPECT_FALSE(validate_bench_json(v).empty()) << "dropped " << key;
  }
}

TEST(BenchSchema, WrongTypesFail) {
  {
    Value v = parse_ok(valid_bench_doc());
    for (auto& member : v.object) {
      if (member.first == "name") member.second = parse_ok("123");
    }
    EXPECT_FALSE(validate_bench_json(v).empty());
  }
  {
    Value v = parse_ok(valid_bench_doc());
    for (auto& member : v.object) {
      if (member.first == "schema_version") member.second = parse_ok("2");
    }
    EXPECT_FALSE(validate_bench_json(v).empty());
  }
  {
    Value v = parse_ok(valid_bench_doc());
    for (auto& member : v.object) {
      // A non-number value inside counters breaks the all-number contract.
      if (member.first == "counters") {
        member.second = parse_ok(R"({"hmm.windows": "many"})");
      }
    }
    EXPECT_FALSE(validate_bench_json(v).empty());
  }
  {
    Value v = parse_ok(valid_bench_doc());
    for (auto& member : v.object) {
      // A stage entry missing p95_ms breaks the stage contract.
      if (member.first == "stages") {
        member.second = parse_ok(
            R"({"core.hmm_decode": {"count": 1, "total_s": 0.1,
                "mean_ms": 100, "p50_ms": 100}})");
      }
    }
    EXPECT_FALSE(validate_bench_json(v).empty());
  }
}

TEST(BenchSchema, NegativeWallClockFails) {
  Value v = parse_ok(valid_bench_doc());
  for (auto& member : v.object) {
    if (member.first == "wall_s") member.second = parse_ok("-1");
  }
  EXPECT_FALSE(validate_bench_json(v).empty());
}

// The writer the bench binaries use and the parser the runner uses must
// agree end to end: emit a schema-complete document with obs::JsonWriter,
// parse it back here, and validate it.
TEST(BenchSchema, RoundTripsThroughObsJsonWriter) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.kv("schema_version", 1);
  w.kv("name", "roundtrip");
  w.kv("git_sha", "deadbeef");
  w.kv("wall_s", 0.125);
  w.key("config");
  w.begin_object();
  w.kv("reps_scale", 2);
  w.kv("threads", 4);
  w.end_object();
  w.key("metrics");
  w.begin_object();
  w.kv("accuracy", 0.875);
  w.end_object();
  w.key("counters");
  w.begin_object();
  w.kv("hmm.windows", std::uint64_t{42});
  w.end_object();
  w.key("gauges");
  w.begin_object();
  w.kv("hmm.beam_occupancy_peak", 600.0);
  w.end_object();
  w.key("stages");
  w.begin_object();
  w.key("core.hmm_decode");
  w.begin_object();
  w.kv("count", std::uint64_t{7});
  w.kv("total_s", 0.5);
  w.kv("mean_ms", 71.4);
  w.kv("p50_ms", 68.6);
  w.kv("p95_ms", 126.5);
  w.end_object();
  w.end_object();
  w.end_object();

  const ParseResult r = parse(os.str());
  ASSERT_TRUE(r.ok) << r.error << "\n" << os.str();
  EXPECT_TRUE(validate_bench_json(r.root).empty()) << os.str();
  EXPECT_EQ(r.root.find("name")->string, "roundtrip");
  EXPECT_DOUBLE_EQ(r.root.find("counters")->find("hmm.windows")->number, 42.0);
  EXPECT_DOUBLE_EQ(
      r.root.find("stages")->find("core.hmm_decode")->find("p50_ms")->number,
      68.6);
}

// ---- Chrome trace-event validation (TRACE_*.json) -----------------------

Value trace_doc(const std::string& events_json) {
  return parse_ok(R"({"displayTimeUnit": "ms", "traceEvents": )" +
                  events_json + "}");
}

TEST(ValidateChromeTrace, AcceptsWellFormedEvents) {
  const Value v = trace_doc(
      R"([{"name": "thread_name", "ph": "M", "ts": 0, "pid": 1, "tid": 1,
           "args": {"name": "main"}},
          {"name": "core.hmm_decode", "ph": "X", "ts": 12.5, "dur": 830.0,
           "pid": 1, "tid": 1, "args": {"windows": 600}},
          {"name": "hmm.window", "ph": "i", "ts": 20.0, "s": "t",
           "pid": 1, "tid": 1}])");
  EXPECT_TRUE(validate_chrome_trace(v).empty());
}

TEST(ValidateChromeTrace, AcceptsBareEventArray) {
  const Value v = parse_ok(
      R"([{"name": "a", "ph": "i", "ts": 1, "pid": 1, "tid": 1}])");
  EXPECT_TRUE(validate_chrome_trace(v).empty());
}

TEST(ValidateChromeTrace, RejectsEmptyAndMalformedDocuments) {
  EXPECT_FALSE(validate_chrome_trace(parse_ok("{}")).empty());
  EXPECT_FALSE(validate_chrome_trace(parse_ok("3")).empty());
  EXPECT_FALSE(validate_chrome_trace(trace_doc("[]")).empty());
}

TEST(ValidateChromeTrace, RejectsBadEvents) {
  // Missing name.
  EXPECT_FALSE(validate_chrome_trace(trace_doc(
                   R"([{"ph": "i", "ts": 1, "pid": 1, "tid": 1}])"))
                   .empty());
  // Unknown phase.
  EXPECT_FALSE(validate_chrome_trace(trace_doc(
                   R"([{"name": "a", "ph": "Z", "ts": 1,
                        "pid": 1, "tid": 1}])"))
                   .empty());
  // Negative timestamp.
  EXPECT_FALSE(validate_chrome_trace(trace_doc(
                   R"([{"name": "a", "ph": "i", "ts": -1,
                        "pid": 1, "tid": 1}])"))
                   .empty());
  // 'X' span without a duration.
  EXPECT_FALSE(validate_chrome_trace(trace_doc(
                   R"([{"name": "a", "ph": "X", "ts": 1,
                        "pid": 1, "tid": 1}])"))
                   .empty());
  // Missing tid; args not an object.
  EXPECT_FALSE(validate_chrome_trace(trace_doc(
                   R"([{"name": "a", "ph": "i", "ts": 1, "pid": 1}])"))
                   .empty());
  EXPECT_FALSE(validate_chrome_trace(trace_doc(
                   R"([{"name": "a", "ph": "i", "ts": 1, "pid": 1,
                        "tid": 1, "args": [1]}])"))
                   .empty());
}

TEST(ValidateChromeTrace, ProblemsNameTheOffendingField) {
  const auto problems = validate_chrome_trace(trace_doc(
      R"([{"name": "a", "ph": "X", "ts": 1, "pid": 1, "tid": 1}])"));
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("dur"), std::string::npos);
}

TEST(ValidateChromeTrace, TracerExportRoundTrips) {
  // The real writer -> parser -> validator path the CI trace step runs:
  // record a few events through the global tracer, export, re-parse.
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_enabled(true);
  tracer.set_ring_capacity(64);
  tracer.reset();
  tracer.set_current_thread_name("benchjson-test");
  const int span = tracer.name_id("test.roundtrip_span");
  const int inst = tracer.name_id("test.roundtrip_instant");
  const int arg = tracer.name_id("window");
  // polarlint-allow(R7): synthetic timestamp for a trace-export fixture.
  const auto begin = obs::Tracer::Clock::now();
  tracer.complete(span, begin, begin + std::chrono::microseconds(100), arg,
                  1.0);
  tracer.instant(inst, arg, 2.0);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  tracer.reset();
  tracer.set_enabled(false);

  const ParseResult r = parse(os.str());
  ASSERT_TRUE(r.ok) << r.error << "\n" << os.str();
  EXPECT_TRUE(validate_chrome_trace(r.root).empty()) << os.str();

  // Schema self-test on the exported fields: one 'M' metadata event for
  // the named thread plus the two recorded events, with ph/ts/pid/tid.
  const Value* events = r.root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 3u);
  const Value& meta = events->array[0];
  EXPECT_EQ(meta.find("ph")->string, "M");
  EXPECT_EQ(meta.find("args")->find("name")->string, "benchjson-test");
  const Value& x = events->array[1];
  EXPECT_EQ(x.find("name")->string, "test.roundtrip_span");
  EXPECT_EQ(x.find("ph")->string, "X");
  EXPECT_NEAR(x.find("dur")->number, 100.0, 1.0);
  EXPECT_DOUBLE_EQ(x.find("args")->find("window")->number, 1.0);
  const Value& i = events->array[2];
  EXPECT_EQ(i.find("ph")->string, "i");
  EXPECT_EQ(i.find("s")->string, "t");
  EXPECT_DOUBLE_EQ(i.find("pid")->number, 1.0);
  EXPECT_GT(i.find("tid")->number, 0.0);
}

TEST(ValidateChromeTrace, FlowEventsNeedCatAndId) {
  // Flow phases bind arrows on (cat, id); both are required.
  const std::string ok =
      R"([{"name": "report.flow", "ph": "s", "ts": 1, "pid": 1, "tid": 1,
           "cat": "flow", "id": 64},
          {"name": "report.flow", "ph": "t", "ts": 2, "pid": 1, "tid": 1,
           "cat": "flow", "id": 64},
          {"name": "report.flow", "ph": "f", "ts": 3, "pid": 1, "tid": 1,
           "cat": "flow", "id": 64}])";
  EXPECT_TRUE(validate_chrome_trace(trace_doc(ok)).empty());
  // Missing id.
  EXPECT_FALSE(validate_chrome_trace(trace_doc(
                   R"([{"name": "a", "ph": "s", "ts": 1, "pid": 1,
                        "tid": 1, "cat": "flow"}])"))
                   .empty());
  // Missing cat.
  EXPECT_FALSE(validate_chrome_trace(trace_doc(
                   R"([{"name": "a", "ph": "f", "ts": 1, "pid": 1,
                        "tid": 1, "id": 3}])"))
                   .empty());
  // Negative id.
  EXPECT_FALSE(validate_chrome_trace(trace_doc(
                   R"([{"name": "a", "ph": "t", "ts": 1, "pid": 1,
                        "tid": 1, "cat": "flow", "id": -1}])"))
                   .empty());
}

TEST(ValidateChromeTrace, TracerFlowExportRoundTrips) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_enabled(true);
  tracer.set_ring_capacity(64);
  tracer.reset();
  const int name = tracer.name_id("report.flow");
  tracer.flow('s', name, 128);
  tracer.flow('t', name, 128);
  tracer.flow('f', name, 128);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  tracer.reset();
  tracer.set_enabled(false);

  const ParseResult r = parse(os.str());
  ASSERT_TRUE(r.ok) << r.error << "\n" << os.str();
  EXPECT_TRUE(validate_chrome_trace(r.root).empty()) << os.str();
  const Value* events = r.root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  int flows = 0;
  for (const Value& e : events->array) {
    const Value* ph = e.find("ph");
    if (ph == nullptr || (ph->string != "s" && ph->string != "t" &&
                          ph->string != "f")) {
      continue;
    }
    ++flows;
    EXPECT_EQ(e.find("cat")->string, "flow");
    EXPECT_DOUBLE_EQ(e.find("id")->number, 128.0);
  }
  EXPECT_EQ(flows, 3);
}

// ---- statusz validation (STATUS_*.json) ---------------------------------

std::string valid_status_doc() {
  return R"({
  "schema": "polardraw.statusz.v1",
  "t_s": 4.5,
  "session_count": 1,
  "n_workers": 8,
  "sessions": [
    {"id": 3, "seeded": true, "mailbox_depth": 2, "submitted": 90,
     "committed": 80, "commit_lag": 10, "last_t_s": 4.5,
     "lagging": true, "starved": false, "backpressured": false}
  ],
  "rolling": {"metric": "server.push_to_commit_s", "window_s": 10,
              "count": 80, "p50_s": 0.002, "p99_s": 0.01,
              "mean_s": 0.003, "max_s": 0.02},
  "registry": {"counters": {"server.commits": 80, "hmm.windows": 90}},
  "trace": {"dropped_events": 0},
  "log": {"emitted": 4}
})";
}

TEST(ValidateStatus, ValidDocumentPasses) {
  EXPECT_TRUE(validate_status_json(parse_ok(valid_status_doc())).empty());
}

TEST(ValidateStatus, RejectsNonObjectAndWrongSchema) {
  EXPECT_FALSE(validate_status_json(parse_ok("[]")).empty());
  Value v = parse_ok(valid_status_doc());
  for (auto& member : v.object) {
    if (member.first == "schema") member.second = parse_ok(R"("v2")");
  }
  EXPECT_FALSE(validate_status_json(v).empty());
}

TEST(ValidateStatus, MissingTopLevelBlocksFail) {
  for (const char* key :
       {"schema", "t_s", "session_count", "sessions", "rolling", "registry",
        "trace"}) {
    Value v = parse_ok(valid_status_doc());
    std::erase_if(v.object,
                  [&](const auto& member) { return member.first == key; });
    EXPECT_FALSE(validate_status_json(v).empty()) << "dropped " << key;
  }
}

TEST(ValidateStatus, SessionCountMustMatchArrayLength) {
  Value v = parse_ok(valid_status_doc());
  for (auto& member : v.object) {
    if (member.first == "session_count") member.second = parse_ok("7");
  }
  const auto problems = validate_status_json(v);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("session_count"), std::string::npos);
}

TEST(ValidateStatus, SessionFlagsMustBeBooleans) {
  for (const char* flag : {"seeded", "lagging", "starved", "backpressured"}) {
    Value v = parse_ok(valid_status_doc());
    for (auto& member : v.object) {
      if (member.first != "sessions") continue;
      for (auto& session_member : member.second.array[0].object) {
        if (session_member.first == flag) {
          session_member.second = parse_ok("1");  // number, not boolean
        }
      }
    }
    EXPECT_FALSE(validate_status_json(v).empty()) << flag;
  }
}

TEST(ValidateStatus, RollingAndCountersMustBeNumeric) {
  {
    Value v = parse_ok(valid_status_doc());
    for (auto& member : v.object) {
      if (member.first == "rolling") {
        member.second = parse_ok(R"({"window_s": 10, "count": 1})");
      }
    }
    EXPECT_FALSE(validate_status_json(v).empty());
  }
  {
    Value v = parse_ok(valid_status_doc());
    for (auto& member : v.object) {
      if (member.first == "registry") {
        member.second = parse_ok(R"({"counters": {"server.commits": "x"}})");
      }
    }
    EXPECT_FALSE(validate_status_json(v).empty());
  }
}

}  // namespace
}  // namespace polardraw::benchjson
