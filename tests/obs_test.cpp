// Tests for the atlarge::obs instrumentation plane: the shared JSON
// writer, the metrics registry, the ring-buffer tracer with its Chrome
// exporter, and the kernel observer's counter/pending invariants.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "atlarge/obs/json.hpp"
#include "atlarge/obs/metrics.hpp"
#include "atlarge/obs/observability.hpp"
#include "atlarge/obs/trace.hpp"
#include "atlarge/sim/simulation.hpp"

namespace {

using namespace atlarge;

// ------------------------------------------------------------ JsonWriter --

TEST(JsonWriter, NestedStructureAndCommas) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("name").value("run");
  w.key("t").value(1.5);
  w.key("tags").begin_array().value("a").value("b").end_array();
  w.key("nested").begin_object().key("n").value(3).end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            R"({"name":"run","t":1.5,"tags":["a","b"],"nested":{"n":3}})");
}

TEST(JsonWriter, EscapesStrings) {
  obs::JsonWriter w;
  w.value(std::string_view("a\"b\\c\nd\te\x01"));
  EXPECT_EQ(w.str(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  obs::JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.value(-std::numeric_limits<double>::infinity());
  w.value(2.0);
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null,null,2]");
}

TEST(JsonWriter, IntegerAndBoolValues) {
  obs::JsonWriter w;
  w.begin_array();
  w.value(std::uint64_t{18446744073709551615ULL});
  w.value(std::int64_t{-7});
  w.value(true);
  w.null();
  w.end_array();
  EXPECT_EQ(w.str(), "[18446744073709551615,-7,true,null]");
}

TEST(JsonWriter, ValidUtf8PassesThroughByteForByte) {
  obs::JsonWriter w;
  // 2-byte (é), 3-byte (€), and 4-byte (😀) sequences stay raw UTF-8.
  w.value(std::string_view("h\xc3\xa9llo \xe2\x82\xac \xf0\x9f\x98\x80"));
  EXPECT_EQ(w.str(),
            "\"h\xc3\xa9llo \xe2\x82\xac \xf0\x9f\x98\x80\"");
}

TEST(JsonWriter, MalformedUtf8BecomesReplacementCharacter) {
  const auto quoted = [](std::string_view s) {
    obs::JsonWriter w;
    w.value(s);
    return w.str();
  };
  // Stray continuation byte and a lead byte truncated at end-of-string:
  // one replacement each.
  EXPECT_EQ(quoted("\x80"), "\"\\ufffd\"");
  EXPECT_EQ(quoted("\xc3"), "\"\\ufffd\"");
  // Overlong encoding of '/': the bogus lead byte is replaced, then the
  // orphaned continuation byte is replaced on its own.
  EXPECT_EQ(quoted("\xc0\xaf"), "\"\\ufffd\\ufffd\"");
  // UTF-16 surrogate (U+D800) and a value past U+10FFFF: rejected at the
  // lead byte, leaving each continuation byte to be replaced in turn.
  EXPECT_EQ(quoted("\xed\xa0\x80"), "\"\\ufffd\\ufffd\\ufffd\"");
  EXPECT_EQ(quoted("\xf4\x90\x80\x80"),
            "\"\\ufffd\\ufffd\\ufffd\\ufffd\"");
  // Malformed input never produces invalid-UTF-8 output bytes.
  for (const char c : quoted("a\xff\xfe z"))
    EXPECT_LT(static_cast<unsigned char>(c), 0x80u);
}

TEST(JsonWriter, AsciiOnlyEscapesEveryNonAsciiCodePoint) {
  obs::JsonWriter w;
  w.set_ascii_only(true);
  w.begin_array();
  w.value(std::string_view("h\xc3\xa9"));            // U+00E9, BMP
  w.value(std::string_view("\xe2\x82\xac"));         // U+20AC, BMP
  w.value(std::string_view("\xf0\x9f\x98\x80"));     // U+1F600, astral
  w.end_array();
  EXPECT_EQ(w.str(), "[\"h\\u00e9\",\"\\u20ac\",\"\\ud83d\\ude00\"]");
}

TEST(JsonWriter, ControlCharactersAreAlwaysEscaped) {
  obs::JsonWriter w;
  w.value(std::string_view("a\x01\x1f\x7f"));
  // C0 controls get \u escapes; DEL (0x7f) is legal raw in JSON strings.
  EXPECT_EQ(w.str(), "\"a\\u0001\\u001f\x7f\"");
}

// --------------------------------------------------------------- metrics --

TEST(Metrics, CounterAndGaugeBasics) {
  obs::Registry reg;
  auto& c = reg.counter("x.count");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  // Same name returns the same instrument.
  EXPECT_EQ(&reg.counter("x.count"), &c);

  auto& g = reg.gauge("x.depth");
  g.set(3.5);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST(Metrics, ReferencesStayValidAcrossRegistrations) {
  obs::Registry reg;
  auto& first = reg.counter("a");
  // Register enough instruments to force internal growth if storage were
  // contiguous; node-based maps must keep `first` valid.
  for (int i = 0; i < 100; ++i)
    reg.counter("filler." + std::to_string(i)).add(1);
  first.add(1);
  EXPECT_EQ(reg.counter("a").value(), 1u);
}

TEST(Metrics, JsonSnapshotShape) {
  obs::Registry reg;
  reg.counter("runs").add(2);
  reg.gauge("depth").set(1.5);
  reg.digest("lat").add(0.25);
  const std::string json = reg.json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"runs\":2"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"depth\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"digests\""), std::string::npos);
  EXPECT_EQ(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

TEST(Metrics, JsonSnapshotIncludesDigestQuantiles) {
  obs::Registry reg;
  auto& d = reg.digest("wait");
  for (int i = 1; i <= 1000; ++i) d.add(static_cast<double>(i));
  const std::string json = reg.json();
  EXPECT_NE(json.find("\"digests\""), std::string::npos);
  EXPECT_NE(json.find("\"wait\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1000"), std::string::npos);
  for (const char* key : {"\"p50\"", "\"p95\"", "\"p99\"", "\"p999\"",
                          "\"mean\"", "\"min\"", "\"max\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;
}

// ---------------------------------------------------------------- tracer --

TEST(Tracer, DisabledTracerRecordsNothing) {
  obs::Tracer t;
  EXPECT_FALSE(t.enabled());
  t.begin("a", "c");
  t.instant("b", "c");
  t.end("a", "c");
  EXPECT_EQ(t.recorded(), 0u);
  EXPECT_EQ(t.size(), 0u);
}

TEST(Tracer, RecordsSpansAndInstantsInOrder) {
  obs::Tracer t(16);
  t.begin("outer", "k", 1.0);
  t.instant("mark", "k", 2.0);
  t.end("outer", "k", 3.0);
  const auto recs = t.records();
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].kind, obs::SpanKind::kBegin);
  EXPECT_STREQ(recs[0].name, "outer");
  EXPECT_DOUBLE_EQ(recs[0].sim_time, 1.0);
  EXPECT_EQ(recs[1].kind, obs::SpanKind::kInstant);
  EXPECT_EQ(recs[2].kind, obs::SpanKind::kEnd);
  // Wall clock is monotone over the stream.
  EXPECT_LE(recs[0].wall_us, recs[1].wall_us);
  EXPECT_LE(recs[1].wall_us, recs[2].wall_us);
}

TEST(Tracer, RingWrapDropsOldestAndCounts) {
  obs::Tracer t(4);
  for (int i = 0; i < 10; ++i)
    t.instant("i", "c", static_cast<double>(i));
  EXPECT_EQ(t.recorded(), 10u);
  EXPECT_EQ(t.dropped(), 6u);
  EXPECT_EQ(t.size(), 4u);
  const auto recs = t.records();
  ASSERT_EQ(recs.size(), 4u);
  // The survivors are the most recent four, oldest first.
  EXPECT_DOUBLE_EQ(recs.front().sim_time, 6.0);
  EXPECT_DOUBLE_EQ(recs.back().sim_time, 9.0);
}

TEST(Tracer, ScopedSpanEmitsBeginEnd) {
  obs::Tracer t(8);
  {
    obs::ScopedSpan span(t, "phase", "test", 5.0);
    span.set_end_sim_time(9.0);
  }
  const auto recs = t.records();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].kind, obs::SpanKind::kBegin);
  EXPECT_DOUBLE_EQ(recs[0].sim_time, 5.0);
  EXPECT_EQ(recs[1].kind, obs::SpanKind::kEnd);
  EXPECT_DOUBLE_EQ(recs[1].sim_time, 9.0);
}

// Counts occurrences of a substring.
std::size_t count_of(const std::string& s, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = s.find(needle); pos != std::string::npos;
       pos = s.find(needle, pos + needle.size()))
    ++n;
  return n;
}

TEST(Tracer, ChromeJsonHasBalancedSpans) {
  obs::Tracer t(32);
  t.begin("a", "c", 0.0);
  t.begin("b", "c", 1.0);
  t.instant("i", "c", 1.5);
  t.end("b", "c", 2.0);
  t.end("a", "c", 3.0);
  const std::string json = t.chrome_json();
  EXPECT_EQ(count_of(json, "\"ph\":\"B\""), 2u);
  EXPECT_EQ(count_of(json, "\"ph\":\"E\""), 2u);
  EXPECT_EQ(count_of(json, "\"ph\":\"i\""), 1u);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"t_sim\""), std::string::npos);
}

TEST(Tracer, ChromeJsonRebalancesAroundRingWrap) {
  // Capacity 4 with 3 nested spans: the open "a"/"b" B records are
  // overwritten, leaving orphaned E records at the front of the ring. The
  // exporter must skip those and still emit balanced output.
  obs::Tracer t(4);
  t.begin("a", "c", 0.0);
  t.begin("b", "c", 1.0);
  t.begin("d", "c", 2.0);
  t.end("d", "c", 3.0);
  t.end("b", "c", 4.0);
  t.end("a", "c", 5.0);
  EXPECT_GT(t.dropped(), 0u);
  const std::string json = t.chrome_json();
  EXPECT_EQ(count_of(json, "\"ph\":\"B\""), count_of(json, "\"ph\":\"E\""));
}

TEST(Tracer, ChromeJsonClosesDanglingSpans) {
  obs::Tracer t(8);
  t.begin("open", "c", 0.0);
  t.instant("i", "c", 1.0);
  // No end record: the exporter closes the span at the last timestamp.
  const std::string json = t.chrome_json();
  EXPECT_EQ(count_of(json, "\"ph\":\"B\""), 1u);
  EXPECT_EQ(count_of(json, "\"ph\":\"E\""), 1u);
}

TEST(Tracer, EnableResetsState) {
  obs::Tracer t(2);
  t.instant("x", "c");
  t.instant("x", "c");
  t.instant("x", "c");
  EXPECT_EQ(t.dropped(), 1u);
  t.enable(4);
  EXPECT_EQ(t.recorded(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_EQ(t.size(), 0u);
}

// ------------------------------------------------------- kernel observer --

TEST(KernelObserver, CountersMatchPendingAcrossTransitions) {
  obs::Observability plane;
  sim::Simulation s;
  s.set_observer(plane.kernel_observer());

  auto check = [&] {
    const auto& m = plane.metrics;
    const std::uint64_t scheduled =
        plane.metrics.counters().at("sim.events_scheduled").value();
    const std::uint64_t fired =
        plane.metrics.counters().at("sim.events_fired").value();
    const std::uint64_t cancelled =
        plane.metrics.counters().at("sim.events_cancelled").value();
    EXPECT_EQ(s.pending(), scheduled - fired - cancelled);
    EXPECT_DOUBLE_EQ(m.gauges().at("sim.queue_depth").value(),
                     static_cast<double>(s.pending()));
  };

  std::size_t fired_count = 0;
  std::vector<sim::EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(s.schedule_at(static_cast<double>(i),
                                    [&fired_count] { ++fired_count; }));
    check();
  }
  // Cancel a few (including the earliest: the tombstone-at-front path).
  EXPECT_TRUE(handles[0].cancel());
  check();
  EXPECT_TRUE(handles[5].cancel());
  check();
  EXPECT_FALSE(handles[5].cancel());  // double-cancel must not recount
  check();

  const std::size_t executed = s.run_until(4.5);
  check();
  // Single run so far: the digest's sum is exactly `executed`.
  EXPECT_DOUBLE_EQ(static_cast<double>(executed),
                   plane.metrics.digests().at("sim.run_events").sum());
  s.run();
  check();
  EXPECT_EQ(fired_count, 8u);
  EXPECT_EQ(plane.metrics.counters().at("sim.events_fired").value(), 8u);
  EXPECT_EQ(plane.metrics.counters().at("sim.events_cancelled").value(), 2u);
}

TEST(KernelObserver, HandleGenerationRecyclingKeepsCountsExact) {
  obs::Observability plane;
  sim::Simulation s;
  s.set_observer(plane.kernel_observer());

  // Schedule, cancel, and reschedule into the recycled slot; then try a
  // stale cancel through the old handle. The stale cancel must be a no-op
  // for both pending() and the cancelled counter.
  auto h1 = s.schedule_at(1.0, [] {});
  EXPECT_TRUE(h1.cancel());
  auto h2 = s.schedule_at(2.0, [] {});  // likely reuses h1's slot
  EXPECT_FALSE(h1.cancel());            // stale generation
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(plane.metrics.counters().at("sim.events_cancelled").value(), 1u);
  s.run();
  EXPECT_EQ(plane.metrics.counters().at("sim.events_fired").value(), 1u);
  EXPECT_EQ(s.pending(), 0u);
  (void)h2;
}

TEST(KernelObserver, RunSpanAndRunEventsHistogram) {
  obs::Observability plane;
  sim::Simulation s;
  s.set_observer(plane.kernel_observer());
  for (int i = 0; i < 5; ++i) s.schedule_at(static_cast<double>(i), [] {});
  s.run();

  const auto& d = plane.metrics.digests().at("sim.run_events");
  EXPECT_EQ(d.count(), 1u);
  EXPECT_DOUBLE_EQ(d.sum(), 5.0);

  const auto recs = plane.tracer.records();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].kind, obs::SpanKind::kBegin);
  EXPECT_STREQ(recs[0].name, "sim.run");
  EXPECT_EQ(recs[1].kind, obs::SpanKind::kEnd);
  EXPECT_DOUBLE_EQ(recs[1].sim_time, 4.0);  // time of the last event
}

TEST(KernelObserver, MetricsOnlyPlaneRecordsNoSpans) {
  obs::Observability plane(0);  // tracer disabled
  sim::Simulation s;
  s.set_observer(plane.kernel_observer());
  s.schedule_at(1.0, [] {});
  s.run();
  EXPECT_EQ(plane.tracer.recorded(), 0u);
  EXPECT_EQ(plane.metrics.counters().at("sim.events_fired").value(), 1u);
}

TEST(KernelObserver, ScheduleInThePastClampsObservedTime) {
  // schedule_at with a past deadline clamps to now; the observer must see
  // the clamped time, keeping trace timestamps monotone with the kernel.
  obs::Observability plane;
  sim::Simulation s;
  s.set_observer(plane.kernel_observer());
  s.schedule_at(5.0, [&s] {
    s.schedule_at(1.0, [] {});  // in the past: fires at now (5.0)
  });
  s.run();
  EXPECT_EQ(plane.metrics.counters().at("sim.events_fired").value(), 2u);
  EXPECT_EQ(s.pending(), 0u);
}

}  // namespace
