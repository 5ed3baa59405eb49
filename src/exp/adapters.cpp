// The built-in campaign domains. Each is one row of a table: its own small,
// opinionated design space over the domain simulator's config knobs (the
// axes the paper's own tables sweep), which of the two shared dimensions
// (faults.rate, workload.scenario) it takes, and a run function over a
// deterministic seed-derived workload. One adapter class serves every row;
// rows are stateless, so one adapter can serve every worker thread of a
// campaign.

#include "atlarge/exp/adapter.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "atlarge/autoscale/autoscalers.hpp"
#include "atlarge/fault/fault.hpp"
#include "atlarge/autoscale/elastic_sim.hpp"
#include "atlarge/eco/ecosystem.hpp"
#include "atlarge/mmog/zonesim.hpp"
#include "atlarge/obs/observability.hpp"
#include "atlarge/cluster/machine.hpp"
#include "atlarge/graph/algorithms.hpp"
#include "atlarge/graph/graph.hpp"
#include "atlarge/graph/pad.hpp"
#include "atlarge/p2p/swarm.hpp"
#include "atlarge/sched/policies.hpp"
#include "atlarge/sched/portfolio.hpp"
#include "atlarge/sched/simulator.hpp"
#include "atlarge/serverless/platform.hpp"
#include "atlarge/stats/rng.hpp"
#include "atlarge/trace/catalog.hpp"
#include "atlarge/trace/event.hpp"
#include "atlarge/workflow/generators.hpp"

namespace atlarge::exp {
namespace {

/// scale * nominal, floored so a heavily scaled-down smoke campaign still
/// simulates something.
std::size_t scaled(std::size_t nominal, double scale, std::size_t floor_at) {
  const auto v = static_cast<std::size_t>(
      std::llround(static_cast<double>(nominal) * scale));
  return std::max(v, floor_at);
}

/// Seed for the per-trial fault plan: FNV-1a over every parameter EXCEPT
/// faults.rate itself (and excluding the trial seed, which varies with the
/// rate through the trial descriptor). Plans at different rates therefore
/// share a seed when the rest of the design point matches — and since
/// FaultPlan::generate derives each event purely from (seed, index), the
/// lower-rate plan is a subset of the higher-rate one, which is what makes
/// "sweep faults.rate" campaigns monotone-comparable.
std::uint64_t fault_plan_seed(const std::vector<double>& v,
                              std::size_t rate_index) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i == rate_index) continue;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v[i], sizeof bits);
    h = (h ^ bits) * 1099511628211ULL;
  }
  return h;
}

const trace::catalog::Scenario* named_scenario(const char* name) {
  const auto* s = trace::catalog::find(name);
  if (s == nullptr)
    throw std::logic_error(std::string("adapters: unknown catalog scenario ") +
                           name);
  return s;
}

/// A categorical parameter: option i is the index i, rendered as labels[i].
ParamSpec categorical(std::string name, std::vector<std::string> labels) {
  ParamSpec param{std::move(name), {}, std::move(labels)};
  for (std::size_t i = 0; i < param.labels.size(); ++i)
    param.values.push_back(static_cast<double>(i));
  return param;
}

/// One trial as a domain's run function sees it: the design point, with
/// the two shared dimensions already decoded.
struct Trial {
  const std::vector<double>& v;  // params() order: own knobs, then shared
  std::uint64_t seed;
  double scale;
  const std::vector<ParamSpec>& own;  // the row's own knobs: v[0..size)
  double fault_rate;                  // 0 when the row takes no faults.rate
  /// The row's catalog scenario when workload.scenario selects it; null
  /// when the trial runs the domain's built-in synthetic generator.
  const trace::catalog::Scenario* scenario;

  /// The trial's fault plan: `spec` carries the domain's targets, kinds,
  /// outage lengths and horizon. At faults.rate 0 there is no plan at all,
  /// so those trials stay byte-identical to a fault-unaware run.
  std::optional<fault::FaultPlan> fault_plan(fault::FaultSpec spec) const {
    if (!(fault_rate > 0.0)) return std::nullopt;
    spec.rate = fault_rate;
    spec.seed = fault_plan_seed(v, own.size());  // faults.rate follows own
    return fault::FaultPlan::generate(spec);
  }

  /// The chosen option's label of categorical own knob `i`.
  const std::string& label(std::size_t i) const {
    return own[i].labels[static_cast<std::size_t>(v[i])];
  }

  /// The scenario's first scaled(cap) events, floored at a tenth of the
  /// cap, so a trial stays campaign-priced.
  std::vector<trace::Event> scenario_events(std::size_t cap) const {
    return trace::catalog::events(*scenario, seed,
                                  scaled(cap, scale, cap / 10));
  }

  /// Jobs from `spec`'s generator or, when replaying, the scenario's
  /// session starts as one-task jobs capped at the same job budget;
  /// `spec.horizon` then becomes the scenario's (the fault-plan window).
  workflow::Workload jobs(workflow::WorkloadSpec& spec) const {
    if (scenario == nullptr) return workflow::generate(spec);
    const auto events = scenario_events(40'000);
    trace::VectorEventStream stream(events);
    spec.horizon = scenario->horizon();
    return trace::catalog::to_workload(stream, spec.jobs);
  }
};

/// slo_pass / slo_alerts metric pair from a per-trial monitor. Trials are
/// graded like production services: the SLO passes when no multi-window
/// burn-rate alert fired anywhere in the run.
void append_slo_metrics(TrialResult& out, const obs::SloMonitor& slo) {
  out.metrics.emplace_back("slo_alerts",
                           static_cast<double>(slo.alerts().size()));
  out.metrics.emplace_back("slo_pass", slo.alerts().empty() ? 1.0 : 0.0);
}

// ------------------------------------------------------------- portfolio --

/// PortfolioScheduler knobs (selection interval, active-set size,
/// per-task simulation cost) x workload class, run through
/// sched::simulate. Objective: mean bounded slowdown.
TrialResult run_portfolio(const Trial& t) {
  static const workflow::WorkloadClass kClasses[] = {
      workflow::WorkloadClass::kSynthetic,
      workflow::WorkloadClass::kScientific,
      workflow::WorkloadClass::kBigData,
  };
  const auto& v = t.v;
  workflow::WorkloadSpec wspec;
  wspec.cls = kClasses[static_cast<std::size_t>(v[3])];
  wspec.jobs = scaled(48, t.scale, 8);
  wspec.horizon = 4'000.0 * t.scale + 500.0;
  wspec.seed = t.seed;
  // A replayed scenario overrides the synthetic workload dimension.
  const auto workload = t.jobs(wspec);
  const auto env = cluster::make_homogeneous_cluster("campaign", 16, 8);

  sched::PortfolioConfig config;
  config.selection_interval = v[0];
  config.active_set = static_cast<std::size_t>(v[1]);
  config.cost_per_task_policy = v[2];
  config.seed = t.seed ^ 0x90f0110ULL;
  config.eval_threads = 1;  // trial-level parallelism only
  sched::PortfolioScheduler portfolio(sched::standard_policies(), env,
                                      config);
  // Per-trial telemetry plane (local, so the thread-safety contract
  // holds): a queue-saturation SLO graded over the whole run. The
  // tracer ring is disabled — campaigns only need the SLO verdict.
  obs::Observability plane(0);
  obs::SloMonitor slo;
  obs::SloSpec sspec;
  sspec.name = "sched-queue";
  sspec.kind = obs::SloKind::kGaugeAbove;
  sspec.objective = 0.9;  // queue may exceed the bound 10% of the time
  sspec.threshold = 64.0;
  sspec.gauge = &plane.metrics.gauge("sched.eligible_queue");
  sspec.fast = {120.0, 5.0};
  sspec.slow = {1200.0, 2.0};
  slo.add(sspec);
  plane.attach_slo(&slo);
  plane.set_sampling_interval(10.0);

  sched::SimOptions options;
  options.obs = &plane;
  const auto plan = t.fault_plan({.horizon = wspec.horizon,
                                  .targets = 16,  // the cluster's machines
                                  .mean_duration = 120.0,
                                  .kinds = {fault::FaultKind::kMachineCrash,
                                            fault::FaultKind::kSlowdown}});
  if (plan) options.faults = &*plan;
  const auto result = sched::simulate(env, workload, portfolio, options);

  TrialResult out;
  out.objective = result.mean_slowdown;
  out.metrics = {
      {"mean_slowdown", result.mean_slowdown},
      {"median_slowdown", result.median_slowdown},
      {"p95_slowdown", result.p95_slowdown},
      {"p999_slowdown", result.p999_slowdown},
      {"mean_wait", result.mean_wait},
      {"makespan", result.makespan},
      {"utilization", result.utilization},
      {"decision_overhead", result.decision_overhead},
      {"tasks_completed", static_cast<double>(result.tasks_completed)},
      {"faults_injected", static_cast<double>(result.faults_injected)},
      {"tasks_requeued", static_cast<double>(result.tasks_requeued)},
  };
  append_slo_metrics(out, slo);
  out.digest = result.slowdown_digest.serialize();
  return out;
}

// ------------------------------------------------------------ serverless --

/// FaaS platform keep-alive / pre-warm / concurrency cap against a bursty
/// invocation stream. Objective: p95 latency.
TrialResult run_serverless(const Trial& t) {
  const std::vector<serverless::FunctionSpec> registry = {
      {"api", 0.08, 0.9, 128.0},
      {"etl", 0.5, 1.8, 512.0},
      {"ml", 1.2, 2.5, 1024.0},
  };
  const double horizon = t.scenario != nullptr
                             ? t.scenario->horizon()
                             : std::max(120.0, 1'500.0 * t.scale);

  // Per-trial telemetry plane: an availability SLO over the request
  // error ratio, evaluated continuously while the platform runs. With
  // faults.rate > 0 the loss/cold-start-failure windows this plan
  // injects are exactly what the burn-rate monitor is built to detect.
  obs::Observability plane(0);
  obs::SloMonitor slo;
  obs::SloSpec sspec;
  sspec.name = "faas-availability";
  sspec.kind = obs::SloKind::kErrorRatio;
  sspec.objective = 0.95;  // 5% error budget
  sspec.bad = &plane.metrics.counter("faas.failed");
  sspec.total = &plane.metrics.counter("faas.requests");
  sspec.fast = {60.0, 4.0};   // >= 20% of the last minute's requests bad
  sspec.slow = {600.0, 1.0};  // >= 5% over ten minutes
  slo.add(sspec);
  plane.attach_slo(&slo);
  plane.set_sampling_interval(5.0);

  serverless::PlatformConfig config;
  config.obs = &plane;
  config.keep_alive = t.v[0];
  config.prewarmed = static_cast<std::uint32_t>(t.v[1]);
  config.max_instances = static_cast<std::uint32_t>(t.v[2]);
  const auto plan =
      t.fault_plan({.horizon = horizon,
                    .targets = static_cast<std::uint32_t>(registry.size()),
                    .mean_duration = 30.0,
                    .kinds = {fault::FaultKind::kMessageLoss,
                              fault::FaultKind::kMessageDelay,
                              fault::FaultKind::kColdStartFailure}});
  if (plan) {
    config.faults = &*plan;
    config.retry.max_attempts = 2;
    config.retry.timeout = 10.0;
  }
  serverless::PlatformResult result;
  if (t.scenario != nullptr) {
    // Trace-driven arrivals streamed through the platform's pull-based
    // invocation seam. Requests route to functions by region.
    const auto events = t.scenario_events(30'000);
    trace::VectorEventStream stream(events);
    trace::catalog::RequestInvocationSource source(stream, registry.size());
    result = serverless::run_platform(registry, source, config);
  } else {
    stats::Rng rng(t.seed);
    const auto invocations = serverless::bursty_invocations(
        registry.size(), 1.5, horizon, 180.0, scaled(48, t.scale, 6), rng);
    result = serverless::run_platform(registry, invocations, config);
  }

  TrialResult out;
  out.objective = result.p95_latency;
  out.metrics = {
      {"p50_latency", result.p50_latency},
      {"p95_latency", result.p95_latency},
      {"p99_latency", result.p99_latency},
      {"cold_fraction", result.cold_fraction},
      {"billed_instance_seconds", result.billed_instance_seconds},
      {"busy_instance_seconds", result.busy_instance_seconds},
      {"peak_instances", static_cast<double>(result.peak_instances)},
      {"invocations", static_cast<double>(result.invocations.size())},
      {"success_rate", result.success_rate},
      {"failed", static_cast<double>(result.failed_invocations)},
      {"retries", static_cast<double>(result.retries)},
      {"faults_injected", static_cast<double>(result.faults_injected)},
      {"p999_latency", result.p999_latency},
  };
  append_slo_metrics(out, slo);
  out.digest = result.latency_digest.serialize();
  return out;
}

// ------------------------------------------------------------- autoscale --

std::vector<std::string> autoscaler_names() {
  std::vector<std::string> names;
  for (const auto& scaler : autoscale::standard_autoscalers())
    names.push_back(scaler->name());
  return names;
}

/// Autoscaler policy x machine shape x provisioning delay x decision
/// interval on an industrial workflow load. Objective: mean slowdown.
TrialResult run_autoscale(const Trial& t) {
  const auto& v = t.v;
  workflow::WorkloadSpec wspec;
  wspec.cls = workflow::WorkloadClass::kIndustrial;
  wspec.jobs = scaled(28, t.scale, 6);
  wspec.horizon = 6'000.0 * t.scale + 600.0;
  wspec.seed = t.seed;
  auto workload = t.jobs(wspec);

  auto zoo = autoscale::standard_autoscalers();
  const auto idx = static_cast<std::size_t>(v[0]);
  if (idx >= zoo.size())
    throw std::invalid_argument("autoscale adapter: bad autoscaler index");

  autoscale::ElasticConfig config;
  config.cores_per_machine = static_cast<std::uint32_t>(v[1]);
  if (t.scenario != nullptr)
    for (auto& job : workload.jobs)
      for (auto& task : job.tasks)
        task.cores = std::min(task.cores, config.cores_per_machine);
  config.max_machines = 48;
  config.provisioning_delay = v[2];
  config.interval = v[3];
  const auto plan = t.fault_plan({.horizon = wspec.horizon,
                                  .targets = config.max_machines,
                                  .mean_duration = 180.0,
                                  .kinds = {fault::FaultKind::kMachineCrash}});
  if (plan) config.faults = &*plan;
  const auto result = autoscale::run_elastic(workload, *zoo[idx], config);

  double rented_seconds = 0.0;
  for (const double r : result.rentals) rented_seconds += r;

  TrialResult out;
  out.objective = result.mean_slowdown;
  out.metrics = {
      {"mean_slowdown", result.mean_slowdown},
      {"median_slowdown", result.median_slowdown},
      {"mean_response", result.mean_response},
      {"makespan", result.makespan},
      {"deadline_violation_rate", result.deadline_violation_rate()},
      {"norm_accuracy_over", result.metrics.norm_accuracy_over},
      {"norm_accuracy_under", result.metrics.norm_accuracy_under},
      {"machine_seconds", rented_seconds},
      {"faults_injected", static_cast<double>(result.faults_injected)},
      {"tasks_requeued", static_cast<double>(result.tasks_requeued)},
  };
  out.digest = result.slowdown_digest.serialize();
  return out;
}

// ------------------------------------------------------------------- p2p --

/// Swarm seeding/capacity knobs under a flashcrowd. Objective: median
/// download time.
TrialResult run_p2p(const Trial& t) {
  p2p::SwarmConfig config;
  config.content_mb = std::max(50.0, 350.0 * t.scale);
  config.peer_upload_mbps = t.v[0];
  config.seed_upload_mbps = t.v[1];
  config.initial_seeds = static_cast<int>(t.v[2]);
  config.seed_time_mean = t.v[3];
  config.seed = t.seed;

  // Scenario replays need room past the trace horizon for the tail of
  // the swarm to finish downloading.
  const double horizon = t.scenario != nullptr
                             ? t.scenario->horizon() * 2.0
                             : std::max(2'000.0, 20'000.0 * t.scale);
  const auto plan = t.fault_plan({.horizon = horizon,
                                  .targets = 1,
                                  .mean_magnitude = 0.3,
                                  .kinds = {fault::FaultKind::kChurnSpike}});
  if (plan) config.faults = &*plan;
  p2p::SwarmResult result;
  if (t.scenario != nullptr) {
    const auto events = t.scenario_events(20'000);
    trace::VectorEventStream stream(events);
    trace::catalog::SessionArrivalSource source(stream);
    result = p2p::simulate_swarm(config, source, horizon);
  } else {
    stats::Rng rng(t.seed ^ 0xa11afeedULL);
    const auto arrivals = p2p::flashcrowd_arrivals(
        0.02, horizon * 0.5, scaled(120, t.scale, 16), horizon * 0.1, 10.0,
        rng);
    result = p2p::simulate_swarm(config, arrivals, horizon);
  }

  TrialResult out;
  out.objective = result.median_download_time;
  out.metrics = {
      {"median_download_time", result.median_download_time},
      {"mean_download_time", result.mean_download_time},
      {"finished", static_cast<double>(result.finished)},
      {"aborted", static_cast<double>(result.aborted)},
      {"peak_swarm_size", static_cast<double>(result.peak_swarm_size)},
      {"peers", static_cast<double>(result.peers.size())},
      {"churned", static_cast<double>(result.churned)},
  };
  out.digest = result.download_digest.serialize();
  return out;
}

// ----------------------------------------------------------------- graph --

std::vector<std::string> algorithm_names() {
  std::vector<std::string> names;
  for (const auto algo : graph::all_algorithms())
    names.push_back(graph::to_string(algo));
  return names;
}

/// The Graphalytics kernels over dataset family x scale x algorithm x
/// threads. Each trial runs the real kernel, then prices its measured work
/// profile on the Native-1N platform model. Objective: predicted runtime.
TrialResult run_graph(const Trial& t) {
  const auto& v = t.v;
  const auto n = static_cast<graph::VertexId>(
      scaled(static_cast<std::size_t>(std::llround(v[1] * 1000.0)), t.scale,
             64));
  stats::Rng rng(t.seed ^ 0x6ea9ULL);
  graph::Graph g = [&] {
    switch (static_cast<int>(v[0])) {
      case 0: return graph::preferential_attachment(n, 8, rng);
      case 1: return graph::erdos_renyi(n, 8.0, rng);
      default: {
        const auto side = static_cast<graph::VertexId>(std::max(
            8.0, std::round(std::sqrt(static_cast<double>(n)))));
        return graph::grid_2d(side);
      }
    }
  }();

  const auto algo = graph::all_algorithms()[static_cast<std::size_t>(v[2])];
  graph::KernelOptions opts;
  opts.threads = static_cast<std::uint32_t>(v[3]);
  const graph::WorkProfile work = graph::run_algorithm(g, algo, opts);

  // Price the measured profile on the single-node native platform model
  // — a deterministic runtime proxy, unlike wall-clock timing, so memoed
  // trials replay byte-identically.
  const auto platforms = graph::standard_platforms();
  const auto native = std::find_if(
      platforms.begin(), platforms.end(),
      [](const auto& p) { return p.name == "Native-1N"; });
  const double runtime =
      graph::predict_runtime(*native, algo, work, g.num_vertices(),
                             g.num_edges()) /
      static_cast<double>(opts.threads);

  TrialResult out;
  out.objective = runtime;
  out.metrics = {
      {"runtime_proxy", runtime},
      {"edges_traversed", static_cast<double>(work.edges_traversed)},
      {"iterations", static_cast<double>(work.iterations)},
      {"vertices", static_cast<double>(g.num_vertices())},
      {"edges", static_cast<double>(g.num_edges())},
  };
  return out;
}

// ------------------------------------------------------------------ eco --

/// The full ecosystem composition (Section 2's "systems of systems"):
/// serverless, MMOG zones and workflow DAGs co-tenant on one cluster
/// fabric. Sweeps the fabric shape against the control-plane choices, so
/// campaigns measure cross-domain interference, not a simulator in
/// isolation. Objective: serverless p95 latency under co-tenancy.
TrialResult run_eco(const Trial& t) {
  eco::EcosystemSpec spec;
  spec.horizon = std::max(900.0, 3'600.0 * t.scale);
  spec.fabric.machines = static_cast<std::uint32_t>(t.v[0]);
  spec.fabric.cores_per_machine = 8;
  spec.fabric.provisioning_delay = t.v[1];

  spec.serverless.enabled = true;
  spec.serverless.backing = eco::ServerlessBacking::kCluster;
  spec.serverless.instance_cores = 1;
  spec.serverless.registry = {{"api", 0.08, 0.9, 128.0},
                              {"etl", 0.5, 1.8, 512.0}};
  spec.serverless.config.keep_alive = 120.0;
  spec.serverless.config.prewarmed = 0;
  stats::Rng faas_rng(t.seed ^ 0x9e3779b97f4a7c15ULL);
  spec.serverless.invocations = serverless::bursty_invocations(
      spec.serverless.registry.size(), 1.0, 0.8 * spec.horizon, 240.0,
      scaled(24, t.scale, 4), faas_rng);

  spec.mmog.enabled = true;
  spec.mmog.provisioning = eco::ZoneProvisioning::kAutoscaled;
  spec.mmog.autoscaler = t.label(2);
  spec.mmog.avatars_per_machine = 32;
  spec.mmog.report_interval = 30.0;
  spec.mmog.initial_machines = 1;
  spec.mmog.config.zones = 6;
  spec.mmog.config.crossing_time = 5.0;
  spec.mmog.config.act_mean = 25.0;
  spec.mmog.config.migrate_prob = 0.1;
  spec.mmog.config.session_mean = 0.5 * spec.horizon;
  spec.mmog.config.seed = t.seed;
  spec.mmog.arrivals = mmog::synthetic_zone_arrivals(
      scaled(300, t.scale, 32), spec.mmog.config.zones, 0.6 * spec.horizon,
      t.seed);

  spec.dags.enabled = true;
  spec.dags.scheduling = eco::DagScheduling::kSharedFabric;
  spec.dags.policy = t.label(3);
  workflow::WorkloadSpec jobs;
  jobs.cls = workflow::WorkloadClass::kSynthetic;
  jobs.jobs = scaled(24, t.scale, 4);
  jobs.horizon = 0.5 * spec.horizon;
  jobs.seed = t.seed ^ 0xda3e39cb94b95bdbULL;
  spec.dags.workload = workflow::generate(jobs);

  const auto plan =
      t.fault_plan({.horizon = spec.horizon,
                    .targets = static_cast<std::uint32_t>(spec.fabric.machines),
                    .mean_duration = 60.0,
                    .kinds = {fault::FaultKind::kMachineCrash}});
  if (plan) spec.faults = &*plan;

  const eco::EcosystemResult r = eco::run_ecosystem(spec);

  TrialResult out;
  out.objective = r.faas.p95_latency;
  out.metrics = {
      {"faas_p95_latency", r.faas.p95_latency},
      {"faas_p50_latency", r.faas.p50_latency},
      {"faas_cold_fraction", r.faas.cold_fraction},
      {"faas_failed", static_cast<double>(r.faas.failed_invocations)},
      {"faas_denials", static_cast<double>(r.fabric.faas_denials)},
      {"zones_residents", static_cast<double>(r.zones.residents)},
      {"zones_queued_logins", static_cast<double>(r.zones.queued_logins)},
      {"dags_mean_wait", r.dags.mean_wait},
      {"dags_mean_slowdown", r.dags.mean_slowdown},
      {"dags_tasks_requeued", static_cast<double>(r.dags.tasks_requeued)},
      {"fabric_machine_leases", static_cast<double>(r.fabric.machine_leases)},
      {"fabric_autoscale_decisions",
       static_cast<double>(r.fabric.autoscale_decisions)},
      {"fabric_peak_cores_leased",
       static_cast<double>(r.fabric.peak_cores_leased)},
      {"fabric_crashes", static_cast<double>(r.fabric.crashes)},
  };
  out.digest = r.faas.latency_digest.serialize();
  return out;
}

// ---------------------------------------------------------- domain table --

/// One campaign domain. Its design space is `params`, then faults.rate
/// when `faults` is set, then workload.scenario when `scenario` is set.
struct Domain {
  std::string name;
  std::string objective;
  std::vector<ParamSpec> params;  // the domain's own knobs
  bool faults;
  const trace::catalog::Scenario* scenario;  // replayed as workload.scenario
  TrialResult (*run)(const Trial&);
};

/// The domains in presentation order. Built on first use: the autoscaler
/// and algorithm labels come from their registries.
const std::vector<Domain>& domain_table() {
  static const std::vector<Domain> kDomains = {
      {"portfolio", "mean_slowdown",
       {{"selection_interval", {250.0, 500.0, 1000.0}, {}},
        {"active_set", {0.0, 2.0, 4.0}, {}},  // 0 = simulate all policies
        {"cost_per_task_policy", {0.0, 1e-4, 1e-3}, {}},
        categorical("workload", {"Syn", "Sci", "BD"})},
       true, named_scenario("ecommerce-spike"), run_portfolio},
      {"serverless", "p95_latency",
       {{"keep_alive", {0.0, 60.0, 300.0, 600.0}, {}},
        {"prewarmed", {0.0, 2.0, 8.0}, {}},
        {"max_instances", {32.0, 128.0, 512.0}, {}}},
       true, named_scenario("feed-fanout"), run_serverless},
      // Replayed sessions ask for 1-4 cores; run_autoscale caps each
      // replayed task at cores_per_machine. The cap only bites on 2-core
      // machines, the points run_elastic would otherwise reject with
      // "task wider than one machine".
      {"autoscale", "mean_slowdown",
       {categorical("autoscaler", autoscaler_names()),
        {"cores_per_machine", {2.0, 4.0, 8.0}, {}},
        {"provisioning_delay", {30.0, 60.0, 120.0}, {}},
        {"interval", {30.0, 60.0}, {}}},
       true, named_scenario("gaming-diurnal"), run_autoscale},
      {"p2p", "median_download_time",
       {{"peer_upload_mbps", {0.5, 1.0, 2.0}, {}},
        {"seed_upload_mbps", {4.0, 8.0, 16.0}, {}},
        {"initial_seeds", {1.0, 4.0}, {}},
        {"seed_time_mean", {600.0, 1800.0}, {}}},
       true, named_scenario("video-flashcrowd"), run_p2p},
      // The graph domain runs real kernels, not a simulation: no faults.
      {"graph", "runtime_proxy",
       {categorical("dataset", {"social", "random", "grid"}),
        {"scale_k", {1.0, 4.0, 16.0}, {}},  // thousands of vertices
        categorical("algorithm", algorithm_names()),
        {"threads", {1.0, 2.0, 4.0}, {}}},
       false, nullptr, run_graph},
      {"eco", "faas_p95_latency",
       {{"eco.machines", {8.0, 16.0, 32.0}, {}},
        {"eco.provisioning_delay", {15.0, 45.0, 120.0}, {}},
        categorical("eco.autoscaler", {"React", "Hist", "Token"}),
        categorical("eco.policy", {"FCFS", "EASY-BF", "SJF"})},
       true, nullptr, run_eco},
  };
  return kDomains;
}

class DomainAdapter final : public SimulatorAdapter {
 public:
  explicit DomainAdapter(const Domain& d) : d_(d) {}

  std::string domain() const override { return d_.name; }
  std::string objective() const override { return d_.objective; }

  std::vector<ParamSpec> params() const override {
    auto params = d_.params;
    // faults.rate: events per 1000 simulated seconds. Option 0 (the one
    // every committed non-chaos spec pins) runs with no plan at all.
    if (d_.faults) params.push_back({"faults.rate", {0.0, 8.0, 40.0}, {}});
    // workload.scenario: option 0 ("synthetic", pinned by every committed
    // non-scenario spec) keeps the domain's built-in generator; option 1
    // replays the catalog scenario through the engine's trace-driven
    // arrival seam. The order own knobs, faults.rate, workload.scenario
    // feeds every fault-plan seed, so it is fixed.
    if (d_.scenario != nullptr)
      params.push_back(categorical("workload.scenario",
                                   {"synthetic", d_.scenario->name}));
    return params;
  }

  TrialResult run(const std::vector<double>& v, std::uint64_t seed,
                  double scale) const override {
    const std::size_t own = d_.params.size();
    const bool replay =
        d_.scenario != nullptr && v[own + (d_.faults ? 1 : 0)] > 0.5;
    return d_.run({v, seed, scale, d_.params, d_.faults ? v[own] : 0.0,
                   replay ? d_.scenario : nullptr});
  }

 private:
  const Domain& d_;
};

}  // namespace

std::vector<std::string> adapter_domains() {
  std::vector<std::string> names;
  for (const auto& d : domain_table()) names.push_back(d.name);
  return names;
}

std::unique_ptr<SimulatorAdapter> make_adapter(const std::string& domain) {
  for (const auto& d : domain_table())
    if (d.name == domain) return std::make_unique<DomainAdapter>(d);
  std::string known;
  for (const auto& d : domain_table()) {
    if (!known.empty()) known += ", ";
    known += d.name;
  }
  throw std::invalid_argument("unknown campaign domain '" + domain +
                              "' (known: " + known + ")");
}

}  // namespace atlarge::exp
