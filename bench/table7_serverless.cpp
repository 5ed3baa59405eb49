// Table 7 / Section 6.4: serverless studies.
//  [101] serverless economics: pay-per-use vs always-on microservices;
//  [102] the cold-start performance challenge and keep-alive trade-off;
//  Fission Workflows: integrated vs external workflow orchestration;
//  ablation: pre-warmed pool size vs cold-start rate vs billed cost.

#include <cstdio>

#include "atlarge/fault/fault.hpp"
#include "atlarge/obs/observability.hpp"
#include "atlarge/serverless/platform.hpp"
#include "atlarge/serverless/workflow_engine.hpp"
#include "bench_util.hpp"
#include "workload_mode.hpp"

using namespace atlarge;

namespace {

void study_economics() {
  bench::header("[101] Serverless vs microservice economics");
  const auto registry = serverless::uniform_registry(4, 0.2, 1.5);
  std::printf("%-22s %14s %14s %12s\n", "traffic (req/s)", "FaaS billed-s",
              "micro billed-s", "FaaS wins?");
  for (double rate : {0.005, 0.05, 0.5, 5.0}) {
    stats::Rng rng(3);
    const double horizon = 20'000.0;
    const auto invocations = serverless::bursty_invocations(
        4, rate, horizon, horizon / 4.0, 10, rng);
    serverless::PlatformConfig config;
    config.keep_alive = 120.0;
    const auto faas = serverless::run_platform(registry, invocations, config);
    const auto micro = serverless::run_microservice_baseline(
        registry, invocations, 2, horizon);
    std::printf("%-22.3f %14.0f %14.0f %12s\n", rate,
                faas.billed_instance_seconds, micro.billed_instance_seconds,
                faas.billed_instance_seconds < micro.billed_instance_seconds
                    ? "YES"
                    : "no");
  }
  std::printf("=> fine-grained pay-per-use wins for sparse traffic; "
              "always-on capacity wins under sustained load.\n");
}

void study_cold_starts() {
  bench::header("[102] Cold starts: keep-alive and pre-warming ablation");
  const auto registry = serverless::uniform_registry(4, 0.2, 1.5);
  stats::Rng rng(5);
  const auto invocations =
      serverless::bursty_invocations(4, 0.05, 20'000.0, 4'000.0, 15, rng);

  std::printf("%-24s %10s %10s %10s %14s\n", "configuration", "cold%",
              "p50 (s)", "p99 (s)", "billed-s");
  struct Case {
    const char* label;
    serverless::PlatformConfig config;
  };
  serverless::PlatformConfig ephemeral;
  ephemeral.keep_alive = 10.0;
  serverless::PlatformConfig standard;
  standard.keep_alive = 600.0;
  serverless::PlatformConfig sticky;
  sticky.keep_alive = 3'600.0;
  serverless::PlatformConfig prewarmed = standard;
  prewarmed.prewarmed = 2;
  for (const auto& c :
       {Case{"keep-alive 10s", ephemeral}, Case{"keep-alive 600s", standard},
        Case{"keep-alive 3600s", sticky},
        Case{"600s + 2 pre-warmed", prewarmed}}) {
    const auto r = serverless::run_platform(registry, invocations, c.config);
    std::printf("%-24s %9.1f%% %10.3f %10.3f %14.0f\n", c.label,
                100.0 * r.cold_fraction, r.p50_latency, r.p99_latency,
                r.billed_instance_seconds);
  }
  std::printf("=> longer retention and pre-warming trade billed idle time "
              "for tail latency.\n");
}

void study_orchestration() {
  bench::header("Fission Workflows: integrated vs external orchestration");
  const auto registry = serverless::uniform_registry(6, 0.15, 1.0);
  std::vector<workflow::Job> jobs;
  for (int i = 0; i < 20; ++i) {
    jobs.push_back(serverless::make_chain_workflow(8, 6, i * 100.0));
    jobs.push_back(serverless::make_fanout_workflow(6, 6, i * 100.0 + 50.0));
  }

  std::printf("%-28s %12s %12s %14s\n", "orchestrator", "mean mk (s)",
              "p95 mk (s)", "overhead (s)");
  serverless::OrchestratorConfig integrated;
  integrated.kind = serverless::OrchestratorKind::kIntegratedEngine;
  serverless::OrchestratorConfig polling;
  polling.kind = serverless::OrchestratorKind::kExternalPolling;
  polling.poll_interval = 1.0;
  for (const auto& [label, orch] :
       {std::pair{"integrated engine", integrated},
        std::pair{"external poller (1s)", polling}}) {
    const auto r = serverless::run_workflows(registry, jobs, {}, orch);
    std::printf("%-28s %12.2f %12.2f %14.1f\n", label, r.mean_makespan,
                r.p95_makespan, r.orchestration_overhead);
  }
  std::printf("=> event-driven orchestration inside the platform removes "
              "per-step polling latency.\n");
}

/// Chaos study (--faults=<rate> [--fault-seed=<n>]): replays the cold-start
/// workload under a seeded fault plan (message loss/delay + cold-start
/// failures, `rate` events per 1000 s) and compares retry policies. The
/// plan is deterministic in (rate, seed), so runs are reproducible.
void study_faults(double rate, std::uint64_t seed) {
  bench::header("Fault injection: retry policies under a seeded plan");
  const double horizon = 20'000.0;
  const auto registry = serverless::uniform_registry(4, 0.2, 1.5);
  stats::Rng rng(5);
  const auto invocations =
      serverless::bursty_invocations(4, 0.05, horizon, 4'000.0, 15, rng);

  fault::FaultSpec fspec;
  fspec.rate = rate;
  fspec.horizon = horizon;
  fspec.seed = seed;
  fspec.targets = static_cast<std::uint32_t>(registry.size());
  fspec.mean_duration = 120.0;
  fspec.kinds = {fault::FaultKind::kMessageLoss,
                 fault::FaultKind::kMessageDelay,
                 fault::FaultKind::kColdStartFailure};
  const auto plan = fault::FaultPlan::generate(fspec);
  bench::note("plan: " + std::to_string(plan.size()) + " events (rate " +
              std::to_string(rate) + "/1000s, seed " + std::to_string(seed) +
              ")");

  struct Case {
    const char* label;
    fault::RetryPolicy retry;
  };
  fault::RetryPolicy none;  // defaults: single attempt, no timeout
  fault::RetryPolicy timeout_only;
  timeout_only.timeout = 10.0;
  fault::RetryPolicy retries;
  retries.max_attempts = 4;
  retries.timeout = 10.0;
  std::printf("%-26s %10s %8s %8s %10s %10s\n", "retry policy", "success%",
              "failed", "retries", "p99 (s)", "billed-s");
  for (const auto& c : {Case{"no retry, no timeout", none},
                        Case{"timeout 10s, 1 attempt", timeout_only},
                        Case{"timeout 10s, 4 attempts", retries}}) {
    serverless::PlatformConfig config;
    config.keep_alive = 600.0;
    config.faults = &plan;
    config.retry = c.retry;
    const auto r = serverless::run_platform(registry, invocations, config);
    std::printf("%-26s %9.1f%% %8zu %8zu %10.3f %10.0f\n", c.label,
                100.0 * r.success_rate, r.failed_invocations, r.retries,
                r.p99_latency, r.billed_instance_seconds);
  }
  std::printf("=> retries recover fault-window failures at the price of "
              "extra billed time and tail latency.\n");
}

/// Re-runs one representative FaaS experiment with the observability plane
/// attached and exports whatever was asked for (bench::export_plane): the
/// continuous sim-time series is sampled every 60 s, and the flight
/// recorder keeps the causal snapshot.
void instrumented_run(const bench::HarnessOptions& opts) {
  bench::header("Instrumented run "
                "(--trace/--metrics-out/--timeseries-out/--flight-out)");
  const auto registry = serverless::uniform_registry(4, 0.2, 1.5);
  stats::Rng rng(5);
  const auto invocations =
      serverless::bursty_invocations(4, 0.05, 20'000.0, 4'000.0, 15, rng);

  obs::Observability plane;
  obs::TimeSeries series(60.0);
  series.track_counter("requests", plane.metrics.counter("faas.requests"));
  series.track_counter("cold_starts",
                       plane.metrics.counter("faas.cold_starts"));
  series.track_counter("failed", plane.metrics.counter("faas.failed"));
  series.track_gauge("live_instances",
                     plane.metrics.gauge("faas.live_instances"));
  plane.attach_timeseries(&series);
  obs::FlightRecorder flight;
  plane.attach_flight(&flight);

  serverless::PlatformConfig config;
  config.keep_alive = 600.0;
  config.obs = &plane;
  const auto r = serverless::run_platform(registry, invocations, config);
  std::printf("%zu invocations, %.1f%% cold\n", r.invocations.size(),
              100.0 * r.cold_fraction);

  bench::export_plane(opts, plane, &series, &flight);
  bench::note("metrics: " + plane.metrics.json());
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::uint32_t kExport = bench::kTrace | bench::kMetricsOut |
                                     bench::kTimeseriesOut | bench::kFlightOut;
  const auto opts = bench::parse_flags(
      argc, argv,
      {bench::kReplay, {bench::kFaults, bench::kFaultSeed | kExport},
       {0, kExport}});
  if (bench::workload_mode(argv[0], opts, "feed-fanout")) return 0;
  bench::header("Table 7 / Section 6.4: serverless studies");
  study_economics();
  study_cold_starts();
  study_orchestration();
  const double fault_rate = opts.faults.value_or(0.0);
  if (fault_rate > 0.0) study_faults(fault_rate, opts.fault_seed.value_or(1));
  if (opts.wants_export()) instrumented_run(opts);
  return 0;
}
