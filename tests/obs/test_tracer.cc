// Unit tests of the event tracer (obs/tracer.h): enable/disable gating,
// ring-buffer overflow semantics (oldest-event eviction, drop accounting,
// no reallocation in steady state), the registry drop counter, thread
// naming, and the SpanSite/ScopedSpan integration.
#include "obs/tracer.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace polardraw::obs {
namespace {

/// All tests share the process-global tracer (instrumented code records
/// into it through function-local statics), so each test starts from a
/// clean, small ring and leaves the tracer disabled.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer& t = Tracer::global();
    t.set_enabled(true);
    t.set_ring_capacity(64);
    t.reset();
    Registry::global().set_enabled(true);
    Registry::global().reset();
  }
  void TearDown() override {
    Tracer::global().reset();
    Tracer::global().set_enabled(false);
    Registry::global().reset();
    Registry::global().set_enabled(false);
  }

  /// This thread's snapshot entry (the one that recorded events).
  static TraceThreadSnapshot own_ring() {
    for (const auto& t : Tracer::global().snapshot()) {
      if (t.recorded > 0) return t;
    }
    return {};
  }
};

TEST_F(TracerTest, RecordsInstantAndCompleteEvents) {
  Tracer& t = Tracer::global();
  const int span = t.name_id("test.span");
  const int inst = t.name_id("test.instant");
  const int arg = t.name_id("value");

  const auto begin = Tracer::Clock::now();
  const auto end = begin + std::chrono::microseconds(250);
  t.complete(span, begin, end, arg, 42.0);
  t.instant(inst, arg, 7.0);

  const TraceThreadSnapshot ring = own_ring();
  ASSERT_EQ(ring.events.size(), 2u);
  EXPECT_EQ(ring.recorded, 2u);
  EXPECT_EQ(ring.dropped, 0u);

  const TraceEventView& x = ring.events[0];
  EXPECT_EQ(x.name, "test.span");
  EXPECT_EQ(x.ph, 'X');
  EXPECT_NEAR(x.dur_us, 250.0, 1.0);
  ASSERT_EQ(x.args.size(), 1u);
  EXPECT_EQ(x.args[0].name, "value");
  EXPECT_DOUBLE_EQ(x.args[0].value, 42.0);

  const TraceEventView& i = ring.events[1];
  EXPECT_EQ(i.name, "test.instant");
  EXPECT_EQ(i.ph, 'i');
  EXPECT_GE(i.ts_us, x.ts_us);
  ASSERT_EQ(i.args.size(), 1u);
  EXPECT_DOUBLE_EQ(i.args[0].value, 7.0);
}

TEST_F(TracerTest, DisabledRecordsNothing) {
  Tracer& t = Tracer::global();
  const int name = t.name_id("test.disabled");
  t.set_enabled(false);
  t.instant(name);
  t.complete(name, Tracer::Clock::now(), Tracer::Clock::now());
  t.set_enabled(true);
  EXPECT_EQ(own_ring().recorded, 0u);
}

TEST_F(TracerTest, NameInterningIsStable) {
  Tracer& t = Tracer::global();
  const int a = t.name_id("test.intern.a");
  const int b = t.name_id("test.intern.b");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.name_id("test.intern.a"), a);
  // Interned names survive reset(); rings do not.
  t.reset();
  EXPECT_EQ(t.name_id("test.intern.a"), a);
}

TEST_F(TracerTest, OverflowEvictsOldestAndCountsDrops) {
  Tracer& t = Tracer::global();
  t.set_ring_capacity(16);
  t.reset();
  const int name = t.name_id("test.overflow");
  const int arg = t.name_id("i");
  for (int i = 0; i < 40; ++i) {
    t.instant(name, arg, static_cast<double>(i));
  }

  const TraceThreadSnapshot ring = own_ring();
  EXPECT_EQ(ring.capacity, 16u);
  EXPECT_EQ(ring.recorded, 40u);
  EXPECT_EQ(ring.dropped, 24u);
  ASSERT_EQ(ring.events.size(), 16u);
  // Oldest-first: events 0..23 were evicted, 24..39 retained in order.
  for (std::size_t i = 0; i < ring.events.size(); ++i) {
    ASSERT_EQ(ring.events[i].args.size(), 1u);
    EXPECT_DOUBLE_EQ(ring.events[i].args[0].value,
                     static_cast<double>(24 + i));
  }
  EXPECT_EQ(t.dropped_events(), 24u);
}

TEST_F(TracerTest, SteadyStateOverflowDoesNotGrowTheRing) {
  Tracer& t = Tracer::global();
  t.set_ring_capacity(16);
  t.reset();
  const int name = t.name_id("test.steady");
  for (int i = 0; i < 10000; ++i) t.instant(name);
  const TraceThreadSnapshot ring = own_ring();
  // The retained window never exceeds the budget no matter how many
  // events flow through (the ring reserves up front and overwrites).
  EXPECT_EQ(ring.events.size(), 16u);
  EXPECT_EQ(ring.recorded, 10000u);
  EXPECT_EQ(ring.dropped, 10000u - 16u);
}

TEST_F(TracerTest, DropsTickTheRegistryCounter) {
  Tracer& t = Tracer::global();
  t.set_ring_capacity(16);
  t.reset();
  const int name = t.name_id("test.drop_counter");
  for (int i = 0; i < 20; ++i) t.instant(name);
  const Snapshot snap = Registry::global().snapshot();
  EXPECT_EQ(snap.counter("trace.dropped_events"), 4u);
}

TEST_F(TracerTest, ResetClearsRingsAndDropCounts) {
  Tracer& t = Tracer::global();
  t.set_ring_capacity(16);
  t.reset();
  const int name = t.name_id("test.reset");
  for (int i = 0; i < 20; ++i) t.instant(name);
  EXPECT_GT(t.dropped_events(), 0u);
  t.reset();
  EXPECT_EQ(t.dropped_events(), 0u);
  EXPECT_EQ(own_ring().recorded, 0u);
}

TEST_F(TracerTest, CapacityIsClamped) {
  Tracer& t = Tracer::global();
  t.set_ring_capacity(1);
  EXPECT_EQ(t.ring_capacity(), 16u);
  t.set_ring_capacity(std::size_t{1} << 40);
  EXPECT_EQ(t.ring_capacity(), std::size_t{1} << 22);
}

TEST_F(TracerTest, ThreadNameShowsUpInSnapshot) {
  Tracer& t = Tracer::global();
  t.set_current_thread_name("unit-test-main");
  t.instant(t.name_id("test.named"));
  const TraceThreadSnapshot ring = own_ring();
  EXPECT_EQ(ring.thread_name, "unit-test-main");
}

TEST_F(TracerTest, ScopedSpanEmitsPairedEventWithArgs) {
  static const SpanSite site("test.scoped_span");
  static const TraceName arg_k("k");
  {
    ScopedSpan span(site);
    span.arg(arg_k, 3.0);
  }
  const TraceThreadSnapshot ring = own_ring();
  ASSERT_EQ(ring.events.size(), 1u);
  EXPECT_EQ(ring.events[0].name, "test.scoped_span");
  EXPECT_EQ(ring.events[0].ph, 'X');
  ASSERT_EQ(ring.events[0].args.size(), 1u);
  EXPECT_EQ(ring.events[0].args[0].name, "k");
  EXPECT_DOUBLE_EQ(ring.events[0].args[0].value, 3.0);
  // The same destructor feeds the site's histogram from the same clock
  // read, so the metrics view stays consistent with the trace view.
  const Snapshot snap = Registry::global().snapshot();
  const HistogramSnapshot* h = snap.histogram("test.scoped_span");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
}

TEST_F(TracerTest, FlowEventsCarryPhaseAndId) {
  Tracer& t = Tracer::global();
  const int name = t.name_id("test.flow");
  const int arg = t.name_id("stage");
  t.flow('s', name, 42, arg, 0.0);
  t.flow('t', name, 42, arg, 1.0);
  t.flow('f', name, 42, arg, 2.0);
  t.flow('q', name, 42);  // invalid phase: ignored, not recorded

  const TraceThreadSnapshot ring = own_ring();
  ASSERT_EQ(ring.events.size(), 3u);
  const char phases[] = {'s', 't', 'f'};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ring.events[i].ph, phases[i]) << i;
    EXPECT_EQ(ring.events[i].flow_id, 42u) << i;
    EXPECT_EQ(ring.events[i].name, "test.flow") << i;
    ASSERT_EQ(ring.events[i].args.size(), 1u) << i;
    EXPECT_DOUBLE_EQ(ring.events[i].args[0].value, static_cast<double>(i));
  }
}

TEST_F(TracerTest, FlowSamplingIsDeterministicBySerial) {
  const std::uint64_t period = flow_sample_period();
  ASSERT_GT(period, 0u);
  // Serial 0 means "unassigned" and is never sampled; otherwise exact
  // multiples of the period are, their neighbors are not.
  EXPECT_FALSE(flow_sampled(0));
  EXPECT_TRUE(flow_sampled(period));
  EXPECT_TRUE(flow_sampled(2 * period));
  if (period > 1) {
    EXPECT_FALSE(flow_sampled(period + 1));
    EXPECT_FALSE(flow_sampled(period - 1));
  }
}

TEST_F(TracerTest, RecordReportFlowEmitsOnlySampledSerials) {
  const std::uint64_t period = flow_sample_period();
  record_report_flow('s', 0, FlowStage::kSlot);           // unassigned
  record_report_flow('s', period + 1, FlowStage::kSlot);  // off-sample
  record_report_flow('s', period, FlowStage::kSlot);
  record_report_flow('t', period, FlowStage::kWindow);
  record_report_flow('f', period, FlowStage::kCommit);

  const TraceThreadSnapshot ring = own_ring();
  ASSERT_EQ(ring.events.size(), 3u);
  for (const auto& e : ring.events) {
    EXPECT_EQ(e.name, "report.flow");
    EXPECT_EQ(e.flow_id, period);
    ASSERT_GE(e.args.size(), 1u);
    EXPECT_EQ(e.args[0].name, "stage");
  }
  EXPECT_DOUBLE_EQ(ring.events[0].args[0].value,
                   static_cast<double>(static_cast<int>(FlowStage::kSlot)));
  EXPECT_DOUBLE_EQ(ring.events[1].args[0].value,
                   static_cast<double>(static_cast<int>(FlowStage::kWindow)));
  EXPECT_DOUBLE_EQ(ring.events[2].args[0].value,
                   static_cast<double>(static_cast<int>(FlowStage::kCommit)));
}

TEST_F(TracerTest, ChromeTraceExportCarriesFlowBinding) {
  Tracer& t = Tracer::global();
  const int name = t.name_id("test.flow.export");
  t.flow('s', name, 7);
  t.flow('f', name, 7);
  std::ostringstream os;
  t.write_chrome_trace(os);
  const std::string json = os.str();
  // Flow events need the (cat, id) pair Perfetto matches arrows on.
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"flow\""), std::string::npos);
  EXPECT_NE(json.find("\"id\": 7"), std::string::npos);
}

// Pool workers name their track even with tracing off. A ring that never
// recorded an event must not outlive its thread: eval::run_trials builds a
// pool per call, so keeping such rings would grow the tracer with every
// sweep.
TEST_F(TracerTest, SilentThreadsLeaveNoRings) {
  Tracer& t = Tracer::global();
  t.set_enabled(false);
  const std::size_t before = t.snapshot().size();
  for (int i = 0; i < 50; ++i) {
    ThreadPool pool(4);
    pool.parallel_for(8, [](std::size_t) {});
  }
  EXPECT_EQ(t.snapshot().size(), before);
}

TEST_F(TracerTest, PoolWorkersGetNamedTracks) {
  std::vector<int> slots(8, 0);
  {
    ThreadPool pool(2);  // 1 worker thread + the calling thread
    pool.parallel_for(slots.size(),
                      [&](std::size_t i) { slots[i] = static_cast<int>(i); });
  }  // pool destruction retires the worker's ring into the tracer
  bool saw_worker = false;
  for (const auto& ring : Tracer::global().snapshot()) {
    if (ring.thread_name.rfind("pool.worker-", 0) == 0) saw_worker = true;
  }
  EXPECT_TRUE(saw_worker);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i], static_cast<int>(i));
  }
}

}  // namespace
}  // namespace polardraw::obs
