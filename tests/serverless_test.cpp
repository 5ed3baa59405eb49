// Tests for the FaaS platform and the serverless workflow engine
// (paper Section 6.4).

#include <limits>
#include <string_view>

#include <gtest/gtest.h>

#include "atlarge/obs/observability.hpp"
#include "atlarge/serverless/platform.hpp"
#include "atlarge/serverless/workflow_engine.hpp"

namespace sl = atlarge::serverless;
using atlarge::stats::Rng;

namespace {

std::vector<sl::FunctionSpec> two_functions() {
  return {{"alpha", 0.2, 1.0, 128.0}, {"beta", 0.5, 2.0, 256.0}};
}

/// Streams a vector through the pull interface, as a trace adapter would.
struct VectorStream final : sl::InvocationSource {
  explicit VectorStream(const std::vector<sl::Invocation>& invocations)
      : invocations(invocations) {}
  bool next(sl::Invocation& out) override {
    if (at == invocations.size()) return false;
    out = invocations[at++];
    return true;
  }
  const std::vector<sl::Invocation>& invocations;
  std::size_t at = 0;
};

/// Every PlatformResult field, bit for bit.
void expect_same_result(const sl::PlatformResult& a,
                        const sl::PlatformResult& b) {
  ASSERT_EQ(a.invocations.size(), b.invocations.size());
  for (std::size_t i = 0; i < a.invocations.size(); ++i) {
    const auto& x = a.invocations[i];
    const auto& y = b.invocations[i];
    EXPECT_EQ(x.function, y.function) << "row " << i;
    EXPECT_EQ(x.arrival, y.arrival) << "row " << i;
    EXPECT_EQ(x.start, y.start) << "row " << i;
    EXPECT_EQ(x.finish, y.finish) << "row " << i;
    EXPECT_EQ(x.cold, y.cold) << "row " << i;
    EXPECT_EQ(x.attempts, y.attempts) << "row " << i;
    EXPECT_EQ(x.failed, y.failed) << "row " << i;
  }
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p95_latency, b.p95_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.p999_latency, b.p999_latency);
  EXPECT_EQ(a.latency_digest.serialize(), b.latency_digest.serialize());
  EXPECT_EQ(a.cold_fraction, b.cold_fraction);
  EXPECT_EQ(a.billed_instance_seconds, b.billed_instance_seconds);
  EXPECT_EQ(a.busy_instance_seconds, b.busy_instance_seconds);
  EXPECT_EQ(a.peak_instances, b.peak_instances);
  EXPECT_EQ(a.failed_invocations, b.failed_invocations);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.success_rate, b.success_rate);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.faults_recovered, b.faults_recovered);
  EXPECT_EQ(a.capacity_denials, b.capacity_denials);
}

}  // namespace

TEST(Platform, FirstInvocationIsCold) {
  const auto registry = two_functions();
  const std::vector<sl::Invocation> invocations = {{0, 0.0}};
  const auto result = sl::run_platform(registry, invocations, {});
  ASSERT_EQ(result.invocations.size(), 1u);
  EXPECT_TRUE(result.invocations[0].cold);
  EXPECT_DOUBLE_EQ(result.invocations[0].latency(), 1.0 + 0.2);
}

TEST(Platform, SecondInvocationReusesWarmInstance) {
  const auto registry = two_functions();
  const std::vector<sl::Invocation> invocations = {{0, 0.0}, {0, 5.0}};
  const auto result = sl::run_platform(registry, invocations, {});
  ASSERT_EQ(result.invocations.size(), 2u);
  EXPECT_FALSE(result.invocations[1].cold);
  EXPECT_NEAR(result.invocations[1].latency(), 0.2, 1e-9);
}

TEST(Platform, KeepAliveExpiryForcesColdStart) {
  const auto registry = two_functions();
  sl::PlatformConfig config;
  config.keep_alive = 10.0;
  const std::vector<sl::Invocation> invocations = {{0, 0.0}, {0, 100.0}};
  const auto result = sl::run_platform(registry, invocations, config);
  EXPECT_TRUE(result.invocations[1].cold);
}

TEST(Platform, PrewarmedPoolAvoidsFirstCold) {
  const auto registry = two_functions();
  sl::PlatformConfig config;
  config.prewarmed = 1;
  const std::vector<sl::Invocation> invocations = {{0, 1.0}, {1, 1.0}};
  const auto result = sl::run_platform(registry, invocations, config);
  EXPECT_DOUBLE_EQ(result.cold_fraction, 0.0);
}

TEST(Platform, ConcurrencyCapQueuesRequests) {
  const auto registry = two_functions();
  sl::PlatformConfig config;
  config.max_instances = 1;
  // Three concurrent requests to the same function.
  const std::vector<sl::Invocation> invocations = {{0, 0.0}, {0, 0.0},
                                                   {0, 0.0}};
  const auto result = sl::run_platform(registry, invocations, config);
  ASSERT_EQ(result.invocations.size(), 3u);
  EXPECT_EQ(result.peak_instances, 1u);
  // They serialize: each finishes ~exec_time after the previous.
  std::vector<double> finishes;
  for (const auto& s : result.invocations) finishes.push_back(s.finish);
  std::sort(finishes.begin(), finishes.end());
  EXPECT_GT(finishes[1], finishes[0]);
  EXPECT_GT(finishes[2], finishes[1]);
}

TEST(Platform, MixedFunctionsUnderCapDoNotDeadlock) {
  const auto registry = two_functions();
  sl::PlatformConfig config;
  config.max_instances = 1;
  const std::vector<sl::Invocation> invocations = {{0, 0.0}, {1, 0.0},
                                                   {0, 0.0}};
  const auto result = sl::run_platform(registry, invocations, config);
  EXPECT_EQ(result.invocations.size(), 3u);
}

TEST(Platform, UnknownFunctionRejected) {
  const auto registry = two_functions();
  const std::vector<sl::Invocation> invocations = {{9, 0.0}};
  EXPECT_THROW(sl::run_platform(registry, invocations, {}),
               std::invalid_argument);

  // Later invocations are checked when pulled, during the run: f1's
  // arrival pulls the bad one before dispatching f1, so f0 has started.
  atlarge::obs::Observability plane;
  sl::PlatformConfig config;
  config.obs = &plane;
  const std::vector<sl::Invocation> mid = {
      {0, 0.0}, {1, 1.0}, {7, 2.0}, {0, 3.0}};
  EXPECT_THROW(sl::run_platform(registry, mid, config),
               std::invalid_argument);
  EXPECT_EQ(plane.metrics.counters().at("faas.invocations").value(), 1u);
}

TEST(Platform, BilledAtLeastBusy) {
  Rng rng(1);
  const auto registry = two_functions();
  const auto invocations =
      sl::bursty_invocations(2, 0.5, 2'000.0, 500.0, 20, rng);
  const auto result = sl::run_platform(registry, invocations, {});
  EXPECT_GE(result.billed_instance_seconds,
            result.busy_instance_seconds - 1e-6);
}

TEST(Platform, ColdFractionDropsWithLongerKeepAlive) {
  Rng rng(2);
  const auto registry = two_functions();
  const auto invocations =
      sl::bursty_invocations(2, 0.05, 10'000.0, 2'000.0, 10, rng);
  sl::PlatformConfig ephemeral;
  ephemeral.keep_alive = 1.0;
  sl::PlatformConfig sticky;
  sticky.keep_alive = 3'600.0;
  const auto r_eph = sl::run_platform(registry, invocations, ephemeral);
  const auto r_sticky = sl::run_platform(registry, invocations, sticky);
  EXPECT_GT(r_eph.cold_fraction, r_sticky.cold_fraction);
}

TEST(Platform, KeepAliveTradesBillingForLatency) {
  Rng rng(3);
  const auto registry = two_functions();
  const auto invocations =
      sl::bursty_invocations(2, 0.05, 10'000.0, 2'000.0, 10, rng);
  sl::PlatformConfig ephemeral;
  ephemeral.keep_alive = 1.0;
  sl::PlatformConfig sticky;
  sticky.keep_alive = 3'600.0;
  const auto r_eph = sl::run_platform(registry, invocations, ephemeral);
  const auto r_sticky = sl::run_platform(registry, invocations, sticky);
  EXPECT_LT(r_eph.billed_instance_seconds, r_sticky.billed_instance_seconds);
  EXPECT_GE(r_eph.p95_latency, r_sticky.p95_latency);
}

TEST(Platform, MicroserviceBaselineHasNoColdStarts) {
  Rng rng(4);
  const auto registry = two_functions();
  const auto invocations =
      sl::bursty_invocations(2, 0.2, 5'000.0, 1'000.0, 15, rng);
  const auto result =
      sl::run_microservice_baseline(registry, invocations, 4, 5'000.0);
  EXPECT_DOUBLE_EQ(result.cold_fraction, 0.0);
  // Always-on billing: instances x functions x horizon.
  EXPECT_DOUBLE_EQ(result.billed_instance_seconds, 4.0 * 2.0 * 5'000.0);
}

TEST(Platform, ServerlessCheaperForSparseTraffic) {
  // The serverless economics claim of [101]: pay-per-use wins when
  // traffic is sparse.
  Rng rng(5);
  const auto registry = two_functions();
  const auto invocations =
      sl::bursty_invocations(2, 0.01, 20'000.0, 10'000.0, 5, rng);
  sl::PlatformConfig config;
  config.keep_alive = 60.0;
  const auto faas = sl::run_platform(registry, invocations, config);
  const auto micro =
      sl::run_microservice_baseline(registry, invocations, 2, 20'000.0);
  EXPECT_LT(faas.billed_instance_seconds,
            micro.billed_instance_seconds * 0.25);
}

TEST(Platform, BurstyGeneratorSortedAndBounded) {
  Rng rng(6);
  const auto invocations =
      sl::bursty_invocations(3, 0.5, 1'000.0, 200.0, 25, rng);
  for (std::size_t i = 1; i < invocations.size(); ++i)
    EXPECT_GE(invocations[i].arrival, invocations[i - 1].arrival);
  for (const auto& inv : invocations) {
    EXPECT_LT(inv.function, 3u);
    EXPECT_LT(inv.arrival, 1'000.0);
  }
}

// ------------------------------------------------------ one arrival path --

TEST(Platform, VectorAndStreamedInputsAgree) {
  // f0's second arrival ties with the release of the instance its first
  // invocation cold-started. Both input forms pull that arrival one ahead,
  // so the release fires first and the instance is reused warm.
  const std::vector<sl::FunctionSpec> registry = {{"f0", 0.5, 1.0, 128.0},
                                                  {"f1", 0.5, 1.0, 128.0}};
  const std::vector<sl::Invocation> tie = {{0, 0.0}, {1, 0.5}, {0, 1.5}};
  VectorStream tie_stream(tie);
  const auto tie_vector = sl::run_platform(registry, tie, {});
  expect_same_result(tie_vector, sl::run_platform(registry, tie_stream, {}));
  EXPECT_NEAR(tie_vector.cold_fraction, 2.0 / 3.0, 1e-12);
  EXPECT_EQ(tie_vector.peak_instances, 2u);
  EXPECT_DOUBLE_EQ(tie_vector.billed_instance_seconds, 1203.5);

  // A faulted bursty run with retries and a timeout.
  Rng rng(21);
  const auto bursty = sl::bursty_invocations(2, 0.5, 4'000.0, 500.0, 30, rng);
  atlarge::fault::FaultSpec fspec;
  fspec.rate = 5.0;
  fspec.horizon = 4'000.0;
  fspec.seed = 3;
  fspec.targets = 2;
  fspec.mean_duration = 60.0;
  fspec.kinds = {atlarge::fault::FaultKind::kMessageLoss,
                 atlarge::fault::FaultKind::kMessageDelay,
                 atlarge::fault::FaultKind::kColdStartFailure};
  const auto plan = atlarge::fault::FaultPlan::generate(fspec);
  sl::PlatformConfig config;
  config.keep_alive = 60.0;
  config.max_instances = 4;
  config.faults = &plan;
  config.retry.max_attempts = 3;
  config.retry.timeout = 1.2;  // every cold attempt times out
  VectorStream bursty_stream(bursty);
  const auto bursty_vector = sl::run_platform(registry, bursty, config);
  expect_same_result(bursty_vector,
                     sl::run_platform(registry, bursty_stream, config));
  EXPECT_GT(bursty_vector.retries, 0u);
  EXPECT_GT(bursty_vector.failed_invocations, 0u);
}

TEST(Platform, RejectsUnsortedAndNegativeArrivals) {
  const auto registry = two_functions();
  const std::vector<std::vector<sl::Invocation>> bad = {
      {{0, 0.0}, {1, 2.0}, {0, 1.0}},  // unsorted
      {{0, -1.0}, {1, 2.0}},           // negative arrival
      {{0, 0.0}, {1, std::numeric_limits<double>::quiet_NaN()}},
  };
  for (const auto& invocations : bad) {
    EXPECT_THROW(sl::run_platform(registry, invocations, {}),
                 std::invalid_argument);
    VectorStream stream(invocations);
    EXPECT_THROW(sl::run_platform(registry, stream, {}),
                 std::invalid_argument);
  }
}

// --------------------------------------------------------- workflow engine --

TEST(WorkflowEngine, ChainExecutesSequentially) {
  // 5 distinct functions: every step pays a cold start the first time.
  const auto registry = sl::uniform_registry(5, 0.1, 1.0);
  std::vector<atlarge::workflow::Job> jobs = {
      sl::make_chain_workflow(5, 5, 0.0)};
  sl::OrchestratorConfig orch;
  orch.kind = sl::OrchestratorKind::kIntegratedEngine;
  orch.step_overhead = 0.0;
  const auto result = sl::run_workflows(registry, jobs, {}, orch);
  ASSERT_EQ(result.runs.size(), 1u);
  // 5 steps, all cold: 5 * (1.0 + 0.1).
  EXPECT_NEAR(result.runs[0].makespan(), 5.5, 1e-6);
  EXPECT_EQ(result.runs[0].cold_steps, 5u);
}

TEST(WorkflowEngine, ChainReusesWarmContainersAcrossSteps) {
  // 5 steps cycling over 3 functions: steps 4 and 5 reuse the containers
  // steps 1 and 2 warmed up.
  const auto registry = sl::uniform_registry(3, 0.1, 1.0);
  std::vector<atlarge::workflow::Job> jobs = {
      sl::make_chain_workflow(5, 3, 0.0)};
  sl::OrchestratorConfig orch;
  orch.step_overhead = 0.0;
  const auto result = sl::run_workflows(registry, jobs, {}, orch);
  ASSERT_EQ(result.runs.size(), 1u);
  EXPECT_EQ(result.runs[0].cold_steps, 3u);
  EXPECT_NEAR(result.runs[0].makespan(), 3 * 1.1 + 2 * 0.1, 1e-6);
}

TEST(WorkflowEngine, WarmReuseAcrossRuns) {
  const auto registry = sl::uniform_registry(2, 0.1, 1.0);
  std::vector<atlarge::workflow::Job> jobs = {
      sl::make_chain_workflow(4, 2, 0.0),
      sl::make_chain_workflow(4, 2, 100.0)};  // later run reuses containers
  sl::OrchestratorConfig orch;
  orch.step_overhead = 0.0;
  const auto result = sl::run_workflows(registry, jobs, {}, orch);
  ASSERT_EQ(result.runs.size(), 2u);
  EXPECT_GT(result.runs[0].cold_steps, 0u);
  EXPECT_EQ(result.runs[1].cold_steps, 0u);
  EXPECT_LT(result.runs[1].makespan(), result.runs[0].makespan());
}

TEST(WorkflowEngine, FanoutRunsInParallel) {
  const auto registry = sl::uniform_registry(8, 0.5, 0.0);
  std::vector<atlarge::workflow::Job> jobs = {
      sl::make_fanout_workflow(6, 8, 0.0)};
  sl::OrchestratorConfig orch;
  orch.step_overhead = 0.0;
  const auto result = sl::run_workflows(registry, jobs, {}, orch);
  // source + parallel stage + sink = ~3 x exec, far below 8 x exec.
  EXPECT_NEAR(result.runs[0].makespan(), 1.5, 0.1);
}

TEST(WorkflowEngine, ExternalPollingAddsLatency) {
  // The Fission-Workflows design argument: integrated orchestration beats
  // an external poller.
  const auto registry = sl::uniform_registry(4, 0.1, 0.5);
  std::vector<atlarge::workflow::Job> jobs;
  for (int i = 0; i < 10; ++i)
    jobs.push_back(sl::make_chain_workflow(6, 4, i * 50.0));
  sl::OrchestratorConfig integrated;
  integrated.kind = sl::OrchestratorKind::kIntegratedEngine;
  sl::OrchestratorConfig polling;
  polling.kind = sl::OrchestratorKind::kExternalPolling;
  polling.poll_interval = 1.0;
  const auto fast = sl::run_workflows(registry, jobs, {}, integrated);
  const auto slow = sl::run_workflows(registry, jobs, {}, polling);
  EXPECT_LT(fast.mean_makespan, slow.mean_makespan);
  EXPECT_LT(fast.orchestration_overhead, slow.orchestration_overhead);
}

TEST(WorkflowEngine, RejectsBadFunctionIndex) {
  const auto registry = sl::uniform_registry(2, 0.1, 0.5);
  atlarge::workflow::Job bad;
  atlarge::workflow::Task t;
  t.runtime = 1.0;
  t.cores = 7;  // registry has 2 functions
  bad.tasks.push_back(t);
  std::vector<atlarge::workflow::Job> jobs = {bad};
  EXPECT_THROW(sl::run_workflows(registry, jobs, {}, {}),
               std::invalid_argument);
}

TEST(WorkflowEngine, DependencyListedTwiceStillFinishes) {
  const auto registry = sl::uniform_registry(2, 0.1, 1.0);
  auto job = sl::make_chain_workflow(2, 2, 0.0);
  job.tasks[1].deps = {0, 0};
  std::vector<atlarge::workflow::Job> jobs = {job};
  sl::OrchestratorConfig orch;
  orch.step_overhead = 0.0;
  const auto result = sl::run_workflows(registry, jobs, {}, orch);
  ASSERT_EQ(result.runs.size(), 1u);
  EXPECT_GT(result.runs[0].makespan(), 0.0);
  EXPECT_NEAR(result.runs[0].makespan(), 2 * 1.1, 1e-6);  // two cold steps
}

TEST(WorkflowEngine, ColdFractionAggregates) {
  const auto registry = sl::uniform_registry(2, 0.1, 1.0);
  std::vector<atlarge::workflow::Job> jobs = {
      sl::make_chain_workflow(4, 2, 0.0)};
  const auto result = sl::run_workflows(registry, jobs, {}, {});
  EXPECT_GT(result.cold_fraction, 0.0);
  EXPECT_LE(result.cold_fraction, 1.0);
}

TEST(Observability, PlatformEmitsFaasTelemetry) {
  atlarge::obs::Observability plane;
  const auto registry = two_functions();
  std::vector<sl::Invocation> invocations = {
      {0, 0.0}, {0, 0.1}, {1, 0.2}, {0, 100.0}};
  sl::PlatformConfig config;
  config.keep_alive = 30.0;
  config.obs = &plane;
  const auto result = sl::run_platform(registry, invocations, config);

  std::size_t cold = 0;
  for (const auto& s : result.invocations)
    if (s.cold) ++cold;
  const auto& counters = plane.metrics.counters();
  EXPECT_EQ(counters.at("faas.invocations").value(),
            result.invocations.size());
  EXPECT_EQ(counters.at("faas.cold_starts").value(), cold);
  EXPECT_EQ(plane.metrics.digests().at("faas.latency").count(),
            result.invocations.size());

  bool saw_kernel = false;
  bool saw_faas_run = false;
  for (const auto& rec : plane.tracer.records()) {
    if (std::string_view(rec.category) == "kernel") saw_kernel = true;
    if (std::string_view(rec.name) == "faas.run") saw_faas_run = true;
  }
  EXPECT_TRUE(saw_kernel);
  EXPECT_TRUE(saw_faas_run);

  // Observation must not perturb the simulation.
  sl::PlatformConfig bare = config;
  bare.obs = nullptr;
  const auto unobserved = sl::run_platform(registry, invocations, bare);
  EXPECT_DOUBLE_EQ(unobserved.p99_latency, result.p99_latency);
  EXPECT_DOUBLE_EQ(unobserved.billed_instance_seconds,
                   result.billed_instance_seconds);
}

TEST(Observability, StreamingKeepAliveChurnIsAllocationFree) {
  // Every warm start cancels its instance's keep-alive expiry and re-arms
  // it a minute ahead. At 20 ms between arrivals a cancelled expiry would
  // outlive ~3,000 later requests in the kernel queue; compacted away,
  // the streaming run stays inside the pool the platform pre-sizes and
  // never touches the system allocator.
  struct Steady final : sl::InvocationSource {
    std::size_t issued = 0;
    bool next(sl::Invocation& out) override {
      if (issued == 100'000) return false;
      out.function = issued % 3;
      out.arrival = 0.02 * static_cast<double>(issued);
      ++issued;
      return true;
    }
  } source;
  const std::vector<sl::FunctionSpec> registry = {
      {"alpha", 0.05, 1.0, 128.0},
      {"beta", 0.1, 1.0, 128.0},
      {"gamma", 0.2, 1.0, 128.0}};
  atlarge::obs::Observability plane;
  sl::PlatformConfig config;
  config.keep_alive = 60.0;
  config.record_invocations = false;
  config.obs = &plane;
  const auto result = sl::run_platform(registry, source, config);

  const auto& counters = plane.metrics.counters();
  EXPECT_EQ(counters.at("faas.invocations").value(), 100'000u);
  EXPECT_EQ(result.failed_invocations, 0u);
  EXPECT_GT(counters.at("sim.events_cancelled").value(), 90'000u);
  EXPECT_EQ(counters.at("sim.alloc_events").value(), 0u);
}

// ----------------------------------------------------- fault injection --

TEST(Faults, MessageLossFailsSingleAttemptInvocation) {
  const auto registry = two_functions();
  atlarge::fault::FaultPlan plan;
  plan.add({0.0, atlarge::fault::FaultKind::kMessageLoss, 0, 10.0, 0.5});
  sl::PlatformConfig config;
  config.faults = &plan;  // default retry: one attempt, no timeout
  const std::vector<sl::Invocation> invocations = {{0, 1.0}};
  const auto result = sl::run_platform(registry, invocations, config);
  ASSERT_EQ(result.invocations.size(), 1u);
  EXPECT_TRUE(result.invocations[0].failed);
  EXPECT_EQ(result.invocations[0].attempts, 1u);
  EXPECT_EQ(result.failed_invocations, 1u);
  EXPECT_DOUBLE_EQ(result.success_rate, 0.0);
  EXPECT_EQ(result.faults_injected, 1u);
  EXPECT_EQ(result.retries, 0u);
}

TEST(Faults, RetriesEscapeTheLossWindow) {
  const auto registry = two_functions();
  atlarge::fault::FaultPlan plan;
  plan.add({0.0, atlarge::fault::FaultKind::kMessageLoss, 0, 2.0, 0.5});
  sl::PlatformConfig config;
  config.faults = &plan;
  config.retry.max_attempts = 3;
  config.retry.backoff_base = 0.5;
  config.retry.backoff_factor = 2.0;
  const std::vector<sl::Invocation> invocations = {{0, 1.0}};
  const auto result = sl::run_platform(registry, invocations, config);
  // Attempt 1 at t=1.0 is lost; retry at 1.5 still inside the window;
  // retry at 2.5 escapes it and cold-starts: 2.5 + 1.0 + 0.2 = 3.7.
  ASSERT_EQ(result.invocations.size(), 1u);
  EXPECT_FALSE(result.invocations[0].failed);
  EXPECT_EQ(result.invocations[0].attempts, 3u);
  EXPECT_DOUBLE_EQ(result.invocations[0].finish, 3.7);
  EXPECT_EQ(result.retries, 2u);
  EXPECT_DOUBLE_EQ(result.success_rate, 1.0);
  EXPECT_GE(result.faults_recovered, 1u);
}

TEST(Faults, TimeoutAbandonsAttemptsThatRunTooLong) {
  // No fault plan: the retry/timeout machinery stands on its own. beta's
  // cold start (2.0 + 0.5) exceeds the 1s timeout; the abandoned instance
  // stays warm, so the retry at 1.5 executes in 0.5s and succeeds.
  const auto registry = two_functions();
  sl::PlatformConfig config;
  config.retry.max_attempts = 2;
  config.retry.timeout = 1.0;
  config.retry.backoff_base = 0.5;
  const std::vector<sl::Invocation> invocations = {{1, 0.0}};
  const auto result = sl::run_platform(registry, invocations, config);
  ASSERT_EQ(result.invocations.size(), 1u);
  EXPECT_FALSE(result.invocations[0].failed);
  EXPECT_EQ(result.invocations[0].attempts, 2u);
  EXPECT_DOUBLE_EQ(result.invocations[0].finish, 2.0);
  EXPECT_EQ(result.retries, 1u);
  EXPECT_EQ(result.failed_invocations, 0u);
}

TEST(Faults, ColdStartFailureWindowBlocksProvisioning) {
  const auto registry = two_functions();
  atlarge::fault::FaultPlan plan;
  plan.add({0.0, atlarge::fault::FaultKind::kColdStartFailure, 0, 5.0, 0.5});
  sl::PlatformConfig config;
  config.keep_alive = 1.0;  // the failed attempt leaves no warm instance
  config.faults = &plan;
  const std::vector<sl::Invocation> invocations = {{0, 1.0}, {0, 6.0}};
  const auto result = sl::run_platform(registry, invocations, config);
  ASSERT_EQ(result.invocations.size(), 2u);
  std::size_t failed = 0;
  for (const auto& s : result.invocations)
    if (s.failed) ++failed;
  EXPECT_EQ(failed, 1u);
  EXPECT_DOUBLE_EQ(result.success_rate, 0.5);
  // The invocation after the window cold-starts normally.
  EXPECT_EQ(result.failed_invocations, 1u);
}

TEST(Faults, MessageDelayDefersDispatchWithoutFailing) {
  const auto registry = two_functions();
  atlarge::fault::FaultPlan plan;
  plan.add({0.0, atlarge::fault::FaultKind::kMessageDelay, 0, 5.0, 0.5});
  sl::PlatformConfig config;
  config.faults = &plan;
  const std::vector<sl::Invocation> invocations = {{0, 1.0}};
  const auto result = sl::run_platform(registry, invocations, config);
  ASSERT_EQ(result.invocations.size(), 1u);
  const auto& s = result.invocations[0];
  EXPECT_FALSE(s.failed);
  EXPECT_EQ(s.attempts, 1u);  // deferral consumes no attempt
  EXPECT_TRUE(s.cold);
  // Dispatch deferred to the window end: start 5.0 + 1.0 cold = 6.0.
  EXPECT_DOUBLE_EQ(s.start, 6.0);
  EXPECT_DOUBLE_EQ(s.latency(), 6.2 - 1.0);
  EXPECT_EQ(result.failed_invocations, 0u);
  EXPECT_DOUBLE_EQ(result.success_rate, 1.0);
}
