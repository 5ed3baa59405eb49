// Unit tests for the atlarge::fault plane: kind tokens, plan generation
// (determinism, validation, the subset-across-rates property), manual plan
// editing, retry backoff math, and the kernel Injector (counters, obs
// mirroring, event ordering).

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "atlarge/fault/fault.hpp"
#include "atlarge/fault/injector.hpp"
#include "atlarge/obs/observability.hpp"
#include "atlarge/sim/simulation.hpp"

namespace {

using namespace atlarge;
using fault::FaultEvent;
using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultSpec;

const std::vector<FaultKind> kAllKinds = {
    FaultKind::kMachineCrash,     FaultKind::kMessageLoss,
    FaultKind::kMessageDelay,     FaultKind::kColdStartFailure,
    FaultKind::kChurnSpike,       FaultKind::kSlowdown,
};

TEST(FaultKind, StringRoundTripsAllKinds) {
  // The tokens name the fault.injected.<kind> counters, so each kind needs
  // its own.
  std::vector<std::string> tokens;
  for (FaultKind kind : kAllKinds) {
    const std::string token = fault::to_string(kind);
    EXPECT_FALSE(token.empty());
    tokens.push_back(token);
  }
  std::sort(tokens.begin(), tokens.end());
  EXPECT_EQ(std::unique(tokens.begin(), tokens.end()), tokens.end());
}

TEST(FaultKind, SpanNamesArePrefixedAndDistinct) {
  std::vector<std::string> names;
  for (FaultKind kind : kAllKinds) {
    const std::string name = fault::span_name(kind);
    EXPECT_EQ(name.rfind("fault.", 0), 0u) << name;
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

FaultSpec base_spec(double rate, std::uint64_t seed = 42) {
  FaultSpec spec;
  spec.rate = rate;
  spec.horizon = 2'000.0;
  spec.seed = seed;
  spec.targets = 8;
  return spec;
}

TEST(FaultPlanGenerate, EventCountMatchesRate) {
  EXPECT_EQ(FaultPlan::generate(base_spec(0.0)).size(), 0u);
  EXPECT_EQ(FaultPlan::generate(base_spec(10.0)).size(), 20u);
  EXPECT_EQ(FaultPlan::generate(base_spec(0.5)).size(), 1u);
}

TEST(FaultPlanGenerate, IsDeterministic) {
  const FaultPlan a = FaultPlan::generate(base_spec(25.0));
  const FaultPlan b = FaultPlan::generate(base_spec(25.0));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.seed(), 42u);
}

TEST(FaultPlanGenerate, DifferentSeedsDiffer) {
  const FaultPlan a = FaultPlan::generate(base_spec(25.0, 1));
  const FaultPlan b = FaultPlan::generate(base_spec(25.0, 2));
  EXPECT_NE(a, b);
}

TEST(FaultPlanGenerate, EventsAreSortedAndInRange) {
  FaultSpec spec = base_spec(50.0);
  spec.kinds = {FaultKind::kMessageLoss, FaultKind::kSlowdown};
  const FaultPlan plan = FaultPlan::generate(spec);
  ASSERT_EQ(plan.size(), 100u);
  double last = 0.0;
  for (const FaultEvent& e : plan.events()) {
    EXPECT_GE(e.time, last);
    last = e.time;
    EXPECT_LT(e.time, spec.horizon);
    EXPECT_LT(e.target, spec.targets);
    EXPECT_GT(e.duration, 0.0);
    EXPECT_GE(e.magnitude, 0.01);
    EXPECT_LE(e.magnitude, 1.0);
    EXPECT_TRUE(e.kind == FaultKind::kMessageLoss ||
                e.kind == FaultKind::kSlowdown);
  }
}

TEST(FaultPlanGenerate, LowerRateIsSubsetOfHigherRate) {
  // Each event is a pure function of (seed, index), so the rate only
  // controls how many indices are materialized: a lower-rate plan's events
  // all appear in the higher-rate plan generated from the same seed.
  const FaultPlan small = FaultPlan::generate(base_spec(5.0));
  const FaultPlan big = FaultPlan::generate(base_spec(40.0));
  ASSERT_LT(small.size(), big.size());
  for (const FaultEvent& e : small.events()) {
    EXPECT_NE(std::find(big.events().begin(), big.events().end(), e),
              big.events().end());
  }
}

TEST(FaultPlanGenerate, ValidatesSpec) {
  FaultSpec bad_horizon = base_spec(1.0);
  bad_horizon.horizon = 0.0;
  EXPECT_THROW(FaultPlan::generate(bad_horizon), std::invalid_argument);
  FaultSpec bad_rate = base_spec(-1.0);
  EXPECT_THROW(FaultPlan::generate(bad_rate), std::invalid_argument);
  FaultSpec bad_targets = base_spec(1.0);
  bad_targets.targets = 0;
  EXPECT_THROW(FaultPlan::generate(bad_targets), std::invalid_argument);
}

TEST(FaultPlan, AddKeepsEventsSorted) {
  FaultPlan plan;
  plan.add({30.0, FaultKind::kMachineCrash, 0, 5.0, 0.5});
  plan.add({10.0, FaultKind::kMessageLoss, 1, 5.0, 0.5});
  plan.add({20.0, FaultKind::kSlowdown, 2, 5.0, 0.5});
  plan.add({20.0, FaultKind::kChurnSpike, 3, 5.0, 0.5});  // tie: after
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan.events()[0].time, 10.0);
  EXPECT_EQ(plan.events()[1].kind, FaultKind::kSlowdown);
  EXPECT_EQ(plan.events()[2].kind, FaultKind::kChurnSpike);
  EXPECT_EQ(plan.events()[3].time, 30.0);
}

TEST(RetryPolicy, DefaultsAreNoOp) {
  const fault::RetryPolicy policy;
  EXPECT_EQ(policy.max_attempts, 1u);
  EXPECT_EQ(policy.timeout, 0.0);
}

TEST(RetryPolicy, BackoffIsExponentialAndCapped) {
  fault::RetryPolicy policy;
  policy.backoff_base = 0.5;
  policy.backoff_factor = 2.0;
  policy.backoff_cap = 3.0;
  EXPECT_DOUBLE_EQ(policy.backoff_delay(1), 0.5);
  EXPECT_DOUBLE_EQ(policy.backoff_delay(2), 1.0);
  EXPECT_DOUBLE_EQ(policy.backoff_delay(3), 2.0);
  EXPECT_DOUBLE_EQ(policy.backoff_delay(4), 3.0);   // capped
  EXPECT_DOUBLE_EQ(policy.backoff_delay(20), 3.0);  // stays capped
}

TEST(Injector, DeliversHandledEventsInPlanOrder) {
  FaultPlan plan;
  plan.add({5.0, FaultKind::kMachineCrash, 1, 2.0, 0.5});
  plan.add({15.0, FaultKind::kMachineCrash, 2, 2.0, 0.5});

  sim::Simulation sim;
  fault::Injector injector(plan);
  std::vector<std::uint32_t> seen;
  injector.on_kind(FaultKind::kMachineCrash,
                   [&](const FaultEvent& e) { seen.push_back(e.target); });
  sim.set_fault_hook(&injector);
  sim.run();
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(injector.injected(), 2u);
  EXPECT_EQ(injector.ignored(), 0u);
}

TEST(Injector, CountsUnhandledKindsAsIgnored) {
  FaultPlan plan;
  plan.add({1.0, FaultKind::kChurnSpike, 0, 1.0, 0.5});
  plan.add({2.0, FaultKind::kMachineCrash, 0, 1.0, 0.5});

  sim::Simulation sim;
  fault::Injector injector(plan);
  injector.on_kind(FaultKind::kMachineCrash, [](const FaultEvent&) {});
  sim.set_fault_hook(&injector);
  sim.run();
  EXPECT_EQ(injector.injected(), 1u);
  EXPECT_EQ(injector.ignored(), 1u);
}

TEST(Injector, FiresBeforeDomainEventsAtEqualTime) {
  // The fault hook attaches (and schedules its injections) before domains
  // schedule their arrivals, so at equal timestamps the injection wins the
  // sequence-number tiebreak — windows opened by a fault are already
  // visible to a domain event at the same instant.
  FaultPlan plan;
  plan.add({5.0, FaultKind::kMessageLoss, 0, 1.0, 0.5});

  sim::Simulation sim;
  fault::Injector injector(plan);
  std::vector<std::string> order;
  injector.on_kind(FaultKind::kMessageLoss,
                   [&](const FaultEvent&) { order.push_back("fault"); });
  sim.set_fault_hook(&injector);
  sim.schedule_at(5.0, [&] { order.push_back("domain"); });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"fault", "domain"}));
}

TEST(Injector, MirrorsCountersAndSpansIntoObs) {
  FaultPlan plan;
  plan.add({1.0, FaultKind::kMessageLoss, 0, 1.0, 0.5});
  plan.add({2.0, FaultKind::kMessageLoss, 0, 1.0, 0.5});
  plan.add({3.0, FaultKind::kSlowdown, 0, 1.0, 0.5});

  obs::Observability plane;
  sim::Simulation sim;
  fault::Injector injector(plan, &plane);
  injector.on_kind(FaultKind::kMessageLoss, [](const FaultEvent&) {});
  injector.on_kind(FaultKind::kSlowdown, [](const FaultEvent&) {});
  sim.set_fault_hook(&injector);
  sim.run();
  injector.recovered(plan.events()[0], sim.now());

  EXPECT_EQ(plane.metrics.counter("fault.injected").value(), 3u);
  EXPECT_EQ(plane.metrics.counter("fault.injected.message_loss").value(), 2u);
  EXPECT_EQ(plane.metrics.counter("fault.injected.slowdown").value(), 1u);
  EXPECT_EQ(plane.metrics.counter("fault.recovered").value(), 1u);
  EXPECT_EQ(injector.recovered_count(), 1u);
  EXPECT_GE(plane.tracer.size(), 4u);  // three injections + one recovery
}

TEST(Injector, DetachedHookIsInert) {
  sim::Simulation sim;
  sim.set_fault_hook(nullptr);
  EXPECT_EQ(sim.fault_hook(), nullptr);
  sim.schedule_at(1.0, [] {});
  EXPECT_EQ(sim.run(), 1u);
}

}  // namespace
