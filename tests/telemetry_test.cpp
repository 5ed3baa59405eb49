// Continuous-telemetry plane tests: the percentile Digest, the TimeSeries
// recorder, the kernel sampling hook, the SLO burn-rate monitor, and the
// causal FlightRecorder — plus the determinism property the whole plane
// promises: every telemetry artifact is a pure function of sim-time state,
// byte-identical across runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "atlarge/cluster/machine.hpp"
#include "atlarge/fault/fault.hpp"
#include "atlarge/obs/digest.hpp"
#include "atlarge/obs/flight.hpp"
#include "atlarge/obs/observability.hpp"
#include "atlarge/obs/slo.hpp"
#include "atlarge/obs/timeseries.hpp"
#include "atlarge/sched/policies.hpp"
#include "atlarge/sched/simulator.hpp"
#include "atlarge/sim/simulation.hpp"
#include "atlarge/stats/descriptive.hpp"
#include "atlarge/stats/rng.hpp"
#include "atlarge/workflow/generators.hpp"

namespace {

using namespace atlarge;

// ----------------------------------------------------------------- digest --

TEST(Digest, EmptyDigestIsInert) {
  obs::Digest d;
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.count(), 0u);
  EXPECT_EQ(d.quantile(0.5), 0.0);
  EXPECT_EQ(d.min(), 0.0);
  EXPECT_EQ(d.max(), 0.0);
  EXPECT_EQ(d.mean(), 0.0);
  EXPECT_EQ(d.serialize(), "");
  obs::Digest round;
  EXPECT_TRUE(obs::Digest::deserialize("", round));
  EXPECT_EQ(round, d);
}

TEST(Digest, QuantilesWithinRelativeErrorBound) {
  stats::Rng rng(41);
  std::vector<double> values(20'000);
  obs::Digest d;
  for (auto& v : values) {
    v = rng.uniform(1e-3, 1e3);
    d.add(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    const double exact = stats::quantile(values, q);
    const double approx = d.quantile(q);
    // Upper-edge estimate: never below the exact quantile, and at most one
    // sub-bucket (1/kSub relative) above it.
    EXPECT_GE(approx, exact * (1.0 - 1e-12)) << "q=" << q;
    EXPECT_LE(approx, exact * (1.0 + 1.0 / obs::Digest::kSub) + 1e-12)
        << "q=" << q;
  }
  // The extreme quantiles resolve to bucket upper edges clamped to the
  // observed range: q=0 can sit one sub-bucket above the true min.
  EXPECT_GE(d.quantile(0.0), d.min());
  EXPECT_LE(d.quantile(0.0), d.min() * (1.0 + 1.0 / obs::Digest::kSub));
  EXPECT_EQ(d.quantile(1.0), d.max());
}

TEST(Digest, MergeEqualsCombinedStream) {
  stats::Rng rng(42);
  obs::Digest a;
  obs::Digest b;
  obs::Digest combined;
  for (int i = 0; i < 5'000; ++i) {
    const double v = rng.uniform(1e-2, 1e4);
    (i % 2 == 0 ? a : b).add(v);
    combined.add(v);
  }
  obs::Digest merged = a;
  merged.merge(b);
  // Bucket state, counts, and extrema are exactly those of the combined
  // stream; the scalar sum can differ in the last bits because IEEE
  // addition rounds per insertion order.
  EXPECT_EQ(merged.buckets(), combined.buckets());
  EXPECT_EQ(merged.count(), combined.count());
  EXPECT_EQ(merged.min(), combined.min());
  EXPECT_EQ(merged.max(), combined.max());
  EXPECT_NEAR(merged.sum(), combined.sum(), combined.sum() * 1e-12);
  // Merge is commutative bitwise: a+b and b+a round identically, so the
  // campaign aggregation's merge order cannot change the result.
  obs::Digest reversed = b;
  reversed.merge(a);
  EXPECT_EQ(reversed, merged);
  EXPECT_EQ(reversed.serialize(), merged.serialize());
}

TEST(Digest, BucketStateIsInsertionOrderInvariant) {
  stats::Rng rng(43);
  std::vector<double> values(2'000);
  for (auto& v : values) v = rng.uniform(1e-3, 1e3);
  obs::Digest forward;
  for (const double v : values) forward.add(v);
  obs::Digest shuffled;
  std::mt19937 shuffle_rng(7);
  std::shuffle(values.begin(), values.end(), shuffle_rng);
  for (const double v : values) shuffled.add(v);
  // Everything that feeds quantiles is order-invariant (the scalar sum
  // rounds per IEEE addition order, which is why determinism claims are
  // always about *fixed* evaluation orders, not arbitrary ones).
  EXPECT_EQ(forward.buckets(), shuffled.buckets());
  EXPECT_EQ(forward.count(), shuffled.count());
  EXPECT_EQ(forward.min(), shuffled.min());
  EXPECT_EQ(forward.max(), shuffled.max());
  for (const double q : {0.5, 0.95, 0.99, 0.999})
    EXPECT_EQ(forward.quantile(q), shuffled.quantile(q));
}

TEST(Digest, SerializeRoundTripsBitwise) {
  stats::Rng rng(44);
  obs::Digest d;
  for (int i = 0; i < 1'000; ++i) d.add(rng.uniform(1e-6, 1e9));
  d.add(0.0);
  d.add(-3.5);
  d.add(1e300);  // overflow bucket, still finite
  const std::string text = d.serialize();
  obs::Digest round;
  ASSERT_TRUE(obs::Digest::deserialize(text, round));
  EXPECT_EQ(round, d);
  EXPECT_EQ(round.serialize(), text);
}

TEST(Digest, DeserializeRejectsMalformedInput) {
  obs::Digest out;
  for (const char* bad :
       {"nonsense", "d2;1;1;1;1;1;", "d1;1;1", "d1;1;1;x;0;0;",
        "d1;1;1;1;0;0;9999999:1,", "d1;2;2;3;1;2;0:1"}) {
    EXPECT_FALSE(obs::Digest::deserialize(bad, out)) << bad;
    EXPECT_TRUE(out.empty()) << bad;
  }
}

TEST(Digest, NonFiniteAndNonPositiveValuesAreContained) {
  obs::Digest d;
  d.add(std::nan(""));
  d.add(std::numeric_limits<double>::infinity());
  d.add(0.0);
  d.add(-12.0);
  d.add(4.0);
  EXPECT_EQ(d.count(), 5u);
  // min/max/mean only see values with a usable magnitude.
  EXPECT_EQ(d.min(), -12.0);
  EXPECT_EQ(d.max(), 4.0);
  const std::string text = d.serialize();
  obs::Digest round;
  ASSERT_TRUE(obs::Digest::deserialize(text, round));
  EXPECT_EQ(round, d);
}

TEST(Digest, CountAboveIsConservativeAndEdgeExact) {
  obs::Digest d;
  for (int i = 1; i <= 100; ++i) d.add(static_cast<double>(i));
  // Above the max: nothing. Below the min: everything.
  EXPECT_EQ(d.count_above(1e6), 0u);
  EXPECT_EQ(d.count_above(0.5), 100u);
  // Bucket resolution: the straddling bucket counts as above, so the
  // result can only overestimate the exact strictly-above count.
  for (const double x : {1.0, 10.0, 50.0, 99.0}) {
    const auto exact_above =
        static_cast<std::uint64_t>(100.0 - std::floor(x));
    EXPECT_GE(d.count_above(x), exact_above) << x;
  }
  // A power of two is both a bucket upper edge and the inclusive lower
  // edge of the next bucket (frexp convention), so count_above(64) counts
  // exactly the values >= 64: the 37 values {64, 65, ..., 100}.
  EXPECT_EQ(d.count_above(64.0), 37u);
}

// ------------------------------------------------------------- timeseries --

TEST(TimeSeries, RecordsTrackedInstrumentsPerSample) {
  obs::Registry registry;
  auto& requests = registry.counter("requests");
  auto& depth = registry.gauge("depth");
  obs::TimeSeries series(1.0, 16);
  series.track_counter("requests", requests);
  series.track_gauge("depth", depth);
  ASSERT_EQ(series.columns(), 2u);

  requests.add(3);
  depth.set(7.0);
  series.sample(1.0);
  requests.add(2);
  depth.set(4.0);
  series.sample(2.0);

  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series.time_at(0), 1.0);
  EXPECT_EQ(series.value_at(0, 0), 3.0);
  EXPECT_EQ(series.value_at(0, 1), 7.0);
  EXPECT_EQ(series.time_at(1), 2.0);
  EXPECT_EQ(series.value_at(1, 0), 5.0);  // counters are cumulative
  EXPECT_EQ(series.value_at(1, 1), 4.0);
}

TEST(TimeSeries, ColumnSetFreezesAtFirstSample) {
  obs::Registry registry;
  obs::TimeSeries series(1.0, 8);
  series.track_counter("a", registry.counter("a"));
  series.sample(1.0);
  series.track_counter("late", registry.counter("late"));  // ignored
  series.sample(2.0);
  EXPECT_EQ(series.columns(), 1u);
  ASSERT_EQ(series.names().size(), 1u);
  EXPECT_EQ(series.names()[0], "a");
}

TEST(TimeSeries, RingWrapKeepsNewestRowsAndCountsDropped) {
  obs::Registry registry;
  auto& c = registry.counter("c");
  obs::TimeSeries series(1.0, 4);
  series.track_counter("c", c);
  for (int i = 1; i <= 10; ++i) {
    c.add(1);
    series.sample(static_cast<double>(i));
  }
  EXPECT_EQ(series.size(), 4u);
  EXPECT_EQ(series.dropped(), 6u);
  EXPECT_EQ(series.time_at(0), 7.0);  // oldest retained row
  EXPECT_EQ(series.time_at(3), 10.0);
  EXPECT_EQ(series.value_at(3, 0), 10.0);
}

TEST(TimeSeries, CsvAndJsonExportsAreWellFormed) {
  obs::Registry registry;
  auto& c = registry.counter("events");
  obs::TimeSeries series(0.5, 8);
  series.track_counter("events", c);
  c.add(1);
  series.sample(0.5);
  c.add(1);
  series.sample(1.0);

  const std::string csv = series.csv();
  EXPECT_EQ(csv.find("time,events\n"), 0u);
  EXPECT_NE(csv.find("\n0.5,1\n"), std::string::npos);
  EXPECT_NE(csv.find("\n1,2\n"), std::string::npos);

  const std::string json = series.json();
  EXPECT_NE(json.find("\"interval\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"columns\":[\"time\",\"events\"]"),
            std::string::npos);
  EXPECT_NE(json.find("\"rows\":[[0.5,1],[1,2]]"), std::string::npos);
}

// ---------------------------------------------------- kernel sampling hook --

/// Records every boundary, plus the value of an external cursor at sample
/// time — the tool for proving boundaries fire before the events they
/// precede.
struct RecordingHook final : sim::SamplingHook {
  std::vector<double> boundaries;
  std::vector<int> cursor_at_sample;
  const int* cursor = nullptr;

  void on_sample(sim::Time now) override {
    boundaries.push_back(now);
    if (cursor != nullptr) cursor_at_sample.push_back(*cursor);
  }
};

TEST(SamplingHook, BoundariesFireBeforeEventsAtOrPastThem) {
  sim::Simulation s;
  RecordingHook hook;
  int fired = 0;
  hook.cursor = &fired;
  s.set_sampling_hook(&hook, 1.0);
  for (const double t : {0.25, 0.75, 1.0, 1.5, 2.25})
    s.schedule_at(t, [&fired] { ++fired; });
  s.run();
  // Boundary 1.0 fires before the event AT 1.0 (it observes only events
  // strictly earlier); boundary 2.0 before the 2.25 event.
  ASSERT_EQ(hook.boundaries, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(hook.cursor_at_sample, (std::vector<int>{2, 4}));
  EXPECT_EQ(fired, 5);
}

TEST(SamplingHook, RunUntilEmitsTrailingBoundaries) {
  sim::Simulation s;
  RecordingHook hook;
  s.set_sampling_hook(&hook, 2.0);
  s.schedule_at(3.0, [] {});
  s.run_until(10.0);
  // 2.0 before the event, then the idle tail 4,6,8,10 after the queue
  // drains, so a recorded series covers the whole horizon.
  EXPECT_EQ(hook.boundaries, (std::vector<double>{2.0, 4.0, 6.0, 8.0, 10.0}));
  EXPECT_EQ(s.now(), 10.0);
}

TEST(SamplingHook, AttachmentAlignsToAbsoluteGrid) {
  sim::Simulation s;
  s.schedule_at(2.7, [] {});
  s.run();
  ASSERT_EQ(s.now(), 2.7);
  RecordingHook hook;
  s.set_sampling_hook(&hook, 1.0);  // mid-run attach at t=2.7
  s.schedule_at(4.5, [] {});
  s.run();
  // First boundary is the next absolute multiple (3.0), not 2.7 + 1.0.
  EXPECT_EQ(hook.boundaries, (std::vector<double>{3.0, 4.0}));
}

TEST(SamplingHook, EachSampleSeesExactlyTheEarlierEvents) {
  sim::Simulation s;
  RecordingHook hook;
  int fired = 0;
  hook.cursor = &fired;
  s.set_sampling_hook(&hook, 0.5);
  stats::Rng rng(9);
  std::vector<double> times;
  for (int i = 0; i < 500; ++i) {
    times.push_back(rng.uniform(0.0, 40.0));
    s.schedule_at(times.back(), [&fired] { ++fired; });
  }
  s.run_until(50.0);
  ASSERT_EQ(hook.boundaries.size(), 100u);  // 0.5 .. 50.0
  ASSERT_EQ(hook.cursor_at_sample.size(), 100u);
  for (std::size_t k = 0; k < hook.boundaries.size(); ++k) {
    const double boundary = 0.5 * static_cast<double>(k + 1);
    EXPECT_EQ(hook.boundaries[k], boundary);
    const auto earlier =
        std::count_if(times.begin(), times.end(),
                      [boundary](double t) { return t < boundary; });
    EXPECT_EQ(hook.cursor_at_sample[k], earlier) << "boundary " << boundary;
  }
}

// ------------------------------------------------------------ slo monitor --

TEST(SloMonitor, ErrorRatioBurnMatchesHandComputation) {
  obs::Registry registry;
  auto& bad = registry.counter("bad");
  auto& total = registry.counter("total");
  obs::SloMonitor monitor;
  obs::SloSpec spec;
  spec.name = "avail";
  spec.kind = obs::SloKind::kErrorRatio;
  spec.objective = 0.9;  // budget 0.1
  spec.bad = &bad;
  spec.total = &total;
  spec.fast = {16.0, 4.0};
  spec.slow = {160.0, 1.0};
  monitor.add(spec);

  // 100 requests, 50 bad, in one evaluation: bad fraction 0.5, burn 5.
  total.add(100);
  bad.add(50);
  monitor.advance(1.0);
  EXPECT_DOUBLE_EQ(monitor.burn_fast(0), 5.0);
  EXPECT_DOUBLE_EQ(monitor.burn_slow(0), 5.0);
  ASSERT_EQ(monitor.alerts().size(), 1u);
  EXPECT_EQ(monitor.alerts()[0].time, 1.0);
  EXPECT_EQ(monitor.alerts()[0].name, "avail");
  EXPECT_TRUE(monitor.firing(0));
}

TEST(SloMonitor, AlertsOnlyOnRisingEdges) {
  obs::Registry registry;
  auto& bad = registry.counter("bad");
  auto& total = registry.counter("total");
  obs::SloMonitor monitor;
  obs::SloSpec spec;
  spec.kind = obs::SloKind::kErrorRatio;
  spec.objective = 0.9;
  spec.bad = &bad;
  spec.total = &total;
  spec.fast = {4.0, 4.0};
  spec.slow = {8.0, 2.0};
  monitor.add(spec);

  // Burn hard for several consecutive boundaries: one alert, not many.
  for (int i = 1; i <= 4; ++i) {
    total.add(10);
    bad.add(10);
    monitor.advance(static_cast<double>(i));
  }
  EXPECT_EQ(monitor.alerts().size(), 1u);
  EXPECT_TRUE(monitor.firing(0));

  // Quiet long enough for both windows to forget, then burn again: the
  // second rising edge appends a second alert.
  for (int i = 5; i <= 30; ++i) {
    total.add(10);  // healthy traffic
    monitor.advance(static_cast<double>(i));
  }
  EXPECT_FALSE(monitor.firing(0));
  total.add(10);
  bad.add(10);
  monitor.advance(31.0);
  total.add(10);
  bad.add(10);
  monitor.advance(32.0);
  EXPECT_EQ(monitor.alerts().size(), 2u);
}

TEST(SloMonitor, SlowWindowSuppressesShortBlips) {
  obs::Registry registry;
  auto& bad = registry.counter("bad");
  auto& total = registry.counter("total");
  obs::SloMonitor monitor;
  obs::SloSpec spec;
  spec.kind = obs::SloKind::kErrorRatio;
  spec.objective = 0.9;
  spec.bad = &bad;
  spec.total = &total;
  spec.fast = {4.0, 2.0};
  spec.slow = {64.0, 5.0};  // needs half the traffic bad over a minute
  monitor.add(spec);

  // Long healthy history, then one fully-bad boundary: the fast window
  // burns but the slow window dilutes the blip below threshold.
  for (int i = 1; i <= 60; ++i) {
    total.add(10);
    monitor.advance(static_cast<double>(i));
  }
  total.add(10);
  bad.add(10);
  monitor.advance(61.0);
  EXPECT_GE(monitor.burn_fast(0), 2.0);
  EXPECT_LT(monitor.burn_slow(0), 5.0);
  EXPECT_TRUE(monitor.alerts().empty());
  EXPECT_FALSE(monitor.firing(0));
}

TEST(SloMonitor, LatencyAboveCountsDigestTail) {
  obs::Registry registry;
  auto& latency = registry.digest("latency");
  obs::SloMonitor monitor;
  obs::SloSpec spec;
  spec.kind = obs::SloKind::kLatencyAbove;
  spec.objective = 0.5;  // budget 0.5: burn = 2 * bad fraction
  spec.threshold = 8.0;  // a bucket upper edge: count_above is exact
  spec.digest = &latency;
  spec.fast = {8.0, 1.5};
  spec.slow = {16.0, 1.5};
  monitor.add(spec);

  for (int i = 0; i < 10; ++i) latency.add(1.0);   // fast
  for (int i = 0; i < 30; ++i) latency.add(100.0); // slow: 75% above
  monitor.advance(1.0);
  EXPECT_DOUBLE_EQ(monitor.burn_fast(0), 1.5);
  ASSERT_EQ(monitor.alerts().size(), 1u);
}

TEST(SloMonitor, GaugeAboveBudgetsTimeNotEvents) {
  obs::Registry registry;
  auto& depth = registry.gauge("depth");
  obs::SloMonitor monitor;
  obs::SloSpec spec;
  spec.kind = obs::SloKind::kGaugeAbove;
  spec.objective = 0.5;
  spec.threshold = 10.0;
  spec.gauge = &depth;
  spec.fast = {4.0, 1.9};
  spec.slow = {4.0, 1.9};
  monitor.add(spec);

  // One of two evaluations above the bound: bad fraction 0.5, burn 1.0.
  depth.set(5.0);
  monitor.advance(1.0);
  depth.set(50.0);
  monitor.advance(2.0);
  EXPECT_DOUBLE_EQ(monitor.burn_fast(0), 1.0);
  EXPECT_TRUE(monitor.alerts().empty());
  // Keep the gauge above the bound until the healthy first evaluation
  // ages out of the 4-second window: burn reaches 2.0 and alerts.
  monitor.advance(3.0);
  monitor.advance(4.0);
  monitor.advance(5.0);
  EXPECT_DOUBLE_EQ(monitor.burn_fast(0), 2.0);
  EXPECT_EQ(monitor.alerts().size(), 1u);
}

TEST(SloMonitor, RejectsMalformedSpecs) {
  obs::Registry registry;
  obs::SloMonitor monitor;
  obs::SloSpec spec;  // kErrorRatio with no counters wired
  EXPECT_THROW(monitor.add(spec), std::invalid_argument);
  spec.bad = &registry.counter("bad");
  spec.total = &registry.counter("total");
  spec.objective = 1.0;  // no budget left
  EXPECT_THROW(monitor.add(spec), std::invalid_argument);
  spec.objective = 0.99;
  spec.fast.span = 0.0;
  EXPECT_THROW(monitor.add(spec), std::invalid_argument);
  spec.fast.span = 60.0;
  EXPECT_EQ(monitor.add(spec), 0u);
  EXPECT_EQ(monitor.size(), 1u);
}

TEST(SloMonitor, JsonSnapshotShape) {
  obs::Registry registry;
  obs::SloMonitor monitor;
  obs::SloSpec spec;
  spec.name = "avail";
  spec.bad = &registry.counter("bad");
  spec.total = &registry.counter("total");
  monitor.add(spec);
  const std::string json = monitor.json();
  EXPECT_NE(json.find("\"slos\":[{\"name\":\"avail\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"error_ratio\""), std::string::npos);
  EXPECT_NE(json.find("\"alerts\":[]"), std::string::npos);
}

// -------------------------------------------------------- flight recorder --

TEST(FlightRecorder, PerEntityRingKeepsLastN) {
  obs::FlightRecorder flight(4);
  const std::size_t machine = flight.entity("machine/0");
  for (int i = 1; i <= 10; ++i)
    flight.record(machine, static_cast<double>(i), "tick",
                  static_cast<double>(i));
  EXPECT_EQ(flight.recorded(), 10u);
  EXPECT_EQ(flight.dropped(), 6u);
  EXPECT_EQ(flight.last_seq(machine), 10u);
  const std::string json = flight.chrome_json();
  // Only the last four records survive in the dump (ts is sim seconds in
  // trace microseconds; the trailing comma pins the full number).
  EXPECT_EQ(json.find("\"ts\":1000000,"), std::string::npos);
  EXPECT_EQ(json.find("\"ts\":6000000,"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":7000000,"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":10000000,"), std::string::npos);
}

TEST(FlightRecorder, CausalChainsSpanEntities) {
  obs::FlightRecorder flight;
  const std::size_t machine = flight.entity("machine/0");
  const std::size_t job = flight.entity("job/7");
  const std::uint64_t crash = flight.record(machine, 10.0, "crash", 60.0);
  const std::uint64_t requeue =
      flight.record(job, 10.0, "requeue", 7.0, crash);
  EXPECT_GT(requeue, crash);
  EXPECT_EQ(flight.last_seq(job), requeue);
  const std::string json = flight.chrome_json();
  EXPECT_NE(json.find("\"name\":\"machine/0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"job/7\""), std::string::npos);
  // The requeue's args carry the crash's seq as its cause.
  const std::string expect_cause =
      "\"cause\":" + std::to_string(crash);
  EXPECT_NE(json.find(expect_cause), std::string::npos);
}

TEST(FlightRecorder, EntityLookupIsIdempotent) {
  obs::FlightRecorder flight;
  EXPECT_EQ(flight.entity("a"), flight.entity("a"));
  EXPECT_NE(flight.entity("a"), flight.entity("b"));
  EXPECT_EQ(flight.entities(), 2u);
}

// -------------------------------------------- plane + domain determinism --

/// One faulted cluster-scheduling run with the full telemetry plane
/// attached; returns every telemetry artifact concatenated, for byte
/// comparison across configurations.
std::string sched_telemetry_fingerprint() {
  const auto env = cluster::make_homogeneous_cluster("tel", 4, 2);
  workflow::WorkloadSpec wspec;
  wspec.cls = workflow::WorkloadClass::kIndustrial;
  wspec.jobs = 15;
  wspec.horizon = 1'000.0;
  wspec.seed = 3;
  const auto workload = workflow::generate(wspec);

  fault::FaultSpec fspec;
  fspec.rate = 20.0;
  fspec.horizon = 1'000.0;
  fspec.seed = 5;
  fspec.targets = 4;
  fspec.mean_duration = 50.0;
  fspec.kinds = {fault::FaultKind::kMachineCrash};
  const auto plan = fault::FaultPlan::generate(fspec);

  obs::Observability plane(0);
  obs::TimeSeries series(10.0);
  series.track_counter("placed",
                       plane.metrics.counter("sched.tasks_placed"));
  series.track_gauge("queue", plane.metrics.gauge("sched.eligible_queue"));
  plane.attach_timeseries(&series);
  obs::SloMonitor slo;
  obs::SloSpec spec;
  spec.name = "wait";
  spec.kind = obs::SloKind::kLatencyAbove;
  spec.objective = 0.5;
  spec.threshold = 64.0;
  spec.digest = &plane.metrics.digest("sched.task_wait");
  spec.fast = {100.0, 1.2};
  spec.slow = {400.0, 1.1};
  slo.add(spec);
  plane.attach_slo(&slo);
  obs::FlightRecorder flight;
  plane.attach_flight(&flight);

  sched::FcfsPolicy policy;
  sched::SimOptions options;
  options.faults = &plan;
  options.obs = &plane;
  const auto r = sched::simulate(env, workload, policy, options);

  return series.csv() + "\n#\n" + slo.json() + "\n#\n" +
         flight.chrome_json() + "\n#\n" + r.wait_digest.serialize() +
         "\n#\n" + plane.metrics.json();
}

TEST(TelemetryDeterminism, ArtifactsByteIdenticalAcrossRuns) {
  EXPECT_EQ(sched_telemetry_fingerprint(), sched_telemetry_fingerprint())
      << "telemetry is not a pure function of inputs";
}

TEST(TelemetryDeterminism, DomainResultDigestsIndependentOfPlane) {
  // The additive digest/p999 fields in domain results are built in
  // finalize() from the exact per-job vectors, so they must be identical
  // whether or not an observability plane is attached.
  const auto run = [](obs::Observability* plane) {
    const auto env = cluster::make_homogeneous_cluster("tel", 4, 2);
    workflow::WorkloadSpec wspec;
    wspec.cls = workflow::WorkloadClass::kIndustrial;
    wspec.jobs = 12;
    wspec.horizon = 800.0;
    wspec.seed = 9;
    const auto workload = workflow::generate(wspec);
    sched::SjfPolicy policy;
    sched::SimOptions options;
    options.obs = plane;
    return sched::simulate(env, workload, policy, options);
  };
  obs::Observability plane(0);
  const auto bare = run(nullptr);
  const auto observed = run(&plane);
  EXPECT_EQ(bare.wait_digest.serialize(), observed.wait_digest.serialize());
  EXPECT_EQ(bare.slowdown_digest.serialize(),
            observed.slowdown_digest.serialize());
  EXPECT_EQ(bare.p999_slowdown, observed.p999_slowdown);
  // The plane's hot-path registry digest records every task placement
  // (finer granularity than the per-job result digest): one observation
  // per placed task, exactly.
  EXPECT_EQ(plane.metrics.digest("sched.task_wait").count(),
            plane.metrics.counter("sched.tasks_placed").value());
  EXPECT_GE(plane.metrics.digest("sched.task_wait").count(),
            observed.wait_digest.count());
}

TEST(TelemetryPlane, FirstAlertDumpsFlightRecorderOnce) {
  obs::Observability plane(0);
  obs::SloMonitor slo;
  obs::SloSpec spec;
  spec.name = "always-bad";
  spec.kind = obs::SloKind::kGaugeAbove;
  spec.objective = 0.0;  // budget 1.0
  spec.threshold = 0.5;
  spec.gauge = &plane.metrics.gauge("g");
  spec.fast = {10.0, 0.9};
  spec.slow = {10.0, 0.9};
  slo.add(spec);
  plane.attach_slo(&slo);
  obs::FlightRecorder flight;
  plane.attach_flight(&flight);
  const std::string dump_path =
      testing::TempDir() + "telemetry_alert_dump.json";
  plane.set_alert_dump_path(dump_path);

  plane.metrics.gauge("g").set(1.0);
  flight.record(flight.entity("svc"), 0.5, "degraded");
  EXPECT_FALSE(plane.alert_dumped());
  plane.sample_now(1.0);
  EXPECT_EQ(slo.alerts().size(), 1u);
  EXPECT_TRUE(plane.alert_dumped());
  std::FILE* f = std::fopen(dump_path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(dump_path.c_str());
}

}  // namespace
