// Cross-module integration tests: each scenario wires several AtLarge
// modules together the way the benches and examples do.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "atlarge/atlarge.hpp"

using namespace atlarge;

namespace {

std::string temp_atl(const std::string& tag) {
  return ::testing::TempDir() + "integration_" + tag + ".atl";
}

/// Writes `events` as an .atl trace and reads them back through the
/// streaming reader.
std::vector<trace::Event> atl_round_trip(
    const std::string& path, const std::vector<trace::Event>& events) {
  {
    trace::TraceWriter writer(path);
    for (const auto& e : events) writer.append(e);
    writer.finish();
  }
  trace::TraceReader reader(path);
  trace::AtlEventStream stream(reader);
  std::vector<trace::Event> back;
  trace::Event e;
  while (stream.next(e)) back.push_back(e);
  std::remove(path.c_str());
  return back;
}

}  // namespace

TEST(Integration, WorkloadThroughSchedulerIntoTraceTable) {
  // Generate a workload, schedule it, archive the job submissions as an
  // .atl event trace.
  workflow::WorkloadSpec spec;
  spec.cls = workflow::WorkloadClass::kScientific;
  spec.jobs = 25;
  spec.seed = 1;
  const auto wl = workflow::generate(spec);
  const auto env = cluster::make_homogeneous_cluster("c", 4, 8);
  sched::SjfPolicy policy;
  const auto result = sched::simulate(env, wl, policy);
  for (const auto& j : result.jobs) EXPECT_GE(j.slowdown(), 1.0);

  // One session-start event per job: when it was submitted, which job,
  // and its response time in milliseconds.
  auto jobs = result.jobs;
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const auto& a, const auto& b) {
                     return a.submit < b.submit;
                   });
  std::vector<trace::Event> events;
  for (const auto& j : jobs) {
    trace::Event e;
    e.t_us = trace::to_micros(j.submit);
    e.entity = static_cast<std::int64_t>(j.id);
    e.kind = static_cast<std::int64_t>(trace::EventKind::kSessionStart);
    e.size = trace::to_micros(j.response()) / 1000;
    events.push_back(e);
  }
  const auto back = atl_round_trip(temp_atl("jobs"), events);
  ASSERT_EQ(back.size(), result.jobs.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].t_us, events[i].t_us) << "job " << i;
    EXPECT_EQ(back[i].entity, events[i].entity) << "job " << i;
    EXPECT_EQ(back[i].size, events[i].size) << "job " << i;
  }
}

TEST(Integration, PortfolioSelectionsFeedRankings) {
  // Rank the zoo policies on one workload using the autoscale ranking
  // machinery (metrics: mean slowdown, p95 slowdown, makespan).
  workflow::WorkloadSpec spec;
  spec.cls = workflow::WorkloadClass::kBigData;
  spec.jobs = 30;
  spec.seed = 2;
  const auto wl = workflow::generate(spec);
  const auto env = cluster::make_homogeneous_cluster("c", 2, 8);
  std::vector<autoscale::SystemScores> systems;
  for (auto& p : sched::standard_policies()) {
    const auto r = sched::simulate(env, wl, *p);
    systems.push_back(autoscale::SystemScores{
        p->name(), {r.mean_slowdown, r.p95_slowdown, r.makespan}});
  }
  const auto pairwise = autoscale::rank_pairwise(systems);
  const auto fractional = autoscale::rank_fractional(systems);
  EXPECT_EQ(pairwise.size(), 7u);
  EXPECT_EQ(fractional.size(), 7u);
  // Both rankings agree on who is worst-or-best often enough that the
  // top pairwise scorer is in the top half fractionally.
  const auto& top = pairwise.front().name;
  std::size_t pos = 0;
  for (std::size_t i = 0; i < fractional.size(); ++i) {
    if (fractional[i].name == top) pos = i;
  }
  EXPECT_LT(pos, 4u);
}

TEST(Integration, ElasticCostAccounting) {
  // Autoscaled run -> rentals -> cloud cost models.
  workflow::WorkloadSpec spec;
  spec.cls = workflow::WorkloadClass::kIndustrial;
  spec.jobs = 20;
  spec.seed = 3;
  const auto wl = workflow::generate(spec);
  autoscale::ReactAutoscaler react;
  const auto result = autoscale::run_elastic(wl, react);
  for (const auto& model : cluster::standard_cost_models()) {
    const double cost = model.total_cost(result.makespan, result.rentals);
    EXPECT_GT(cost, 0.0) << model.name;
  }
  // Per-hour billing never cheaper than per-second for the same rentals.
  const auto models = cluster::standard_cost_models();
  EXPECT_GE(models[1].total_cost(result.makespan, result.rentals),
            models[0].total_cost(result.makespan, result.rentals));
}

TEST(Integration, P2PEcosystemArchivedAsFairDatasets) {
  p2p::EcosystemConfig config;
  config.titles = 10;
  config.total_peers = 500.0;
  config.horizon = 15'000.0;
  config.swarm.content_mb = 50.0;
  const auto eco = p2p::simulate_ecosystem(config);

  // Each swarm's peer arrivals become one dataset in the open .atl event
  // format (a session start per peer, the swarm as its region), and read
  // back event for event.
  ASSERT_FALSE(eco.swarms.empty());
  for (std::size_t s = 0; s < eco.swarms.size(); ++s) {
    const auto& peers = eco.swarms[s].result.peers;
    std::vector<trace::Event> events;
    for (std::size_t i = 0; i < peers.size(); ++i) {
      trace::Event e;
      e.t_us = trace::to_micros(peers[i].arrival);
      e.entity = static_cast<std::int64_t>(i);
      e.kind = static_cast<std::int64_t>(trace::EventKind::kSessionStart);
      e.region = static_cast<std::int64_t>(s);
      events.push_back(e);
    }
    const auto back = atl_round_trip(temp_atl("swarm"), events);
    ASSERT_EQ(back.size(), peers.size()) << "swarm " << s;
    for (std::size_t i = 0; i < back.size(); ++i) {
      EXPECT_EQ(back[i].t_us, events[i].t_us) << "swarm " << s;
      EXPECT_EQ(back[i].region, events[i].region) << "swarm " << s;
    }
  }
}

TEST(Integration, BdcDrivesDesignSpaceExploration) {
  // The BDC's design/implement stages run real design-space exploration —
  // the framework orchestrating the substrate, as in the paper's process.
  design::DesignProblem problem(10, 3, 2, 0.7, 5);
  design::BdcConfig config;
  config.satisficing_quality = 0.7;
  config.max_iterations = 20;
  design::BasicDesignCycle bdc(config);
  bdc.on(design::Stage::kHighAndLowLevelDesign,
         [&](design::BdcContext& ctx) {
           design::ExplorationConfig ec;
           ec.evaluation_budget = 400;
           ec.seed = ctx.rng();
           const auto trace = design::explore_free(problem, ec);
           if (trace.best_quality > ctx.best_quality)
             ctx.best_quality = trace.best_quality;
           ctx.designs_found += trace.satisficing_designs;
           ctx.space_explored += trace.evaluations_used;
         });
  const auto report = bdc.run();
  EXPECT_TRUE(report.success());
  EXPECT_GE(report.best_quality, 0.7);
}

TEST(Integration, RefArchValidatesSimulatedServerlessStack) {
  // The serverless simulator's conceptual stack maps onto Figure 9.
  const auto ra = cluster::paper_reference_architecture();
  const auto report = ra.validate(cluster::serverless_ecosystem());
  EXPECT_TRUE(report.executable);

  // And the platform itself runs.
  const auto registry = serverless::uniform_registry(2, 0.1, 1.0);
  stats::Rng rng(4);
  const auto invocations =
      serverless::bursty_invocations(2, 0.2, 500.0, 100.0, 5, rng);
  const auto result = serverless::run_platform(registry, invocations, {});
  EXPECT_EQ(result.invocations.size(), invocations.size());
}

TEST(Integration, GraphWorkProfilesPriceConsistently) {
  stats::Rng rng(5);
  const auto g = graph::preferential_attachment(2'000, 3, rng);
  const auto platforms = graph::standard_platforms();
  for (auto algo : graph::all_algorithms()) {
    const auto work = graph::run_algorithm(g, algo);
    for (const auto& p : platforms) {
      const double t = graph::predict_runtime(p, algo, work,
                                              g.num_vertices(),
                                              g.num_edges());
      const auto breakdown = graph::modeled_breakdown(
          p, algo, work, g.num_vertices(), g.num_edges());
      EXPECT_NEAR(breakdown.total(), t, 1e-9);
    }
  }
}

TEST(Integration, MmogPopulationDrivesElasticSimulator) {
  // Convert an MMOG population series into a gaming workload and run it
  // through the autoscaled cloud — two substrates composed.
  mmog::PopulationConfig pop_config;
  pop_config.days = 0.5;
  pop_config.step = 600.0;
  pop_config.base_players = 200.0;
  const auto series = mmog::generate_population(pop_config);

  workflow::Workload wl;
  wl.name = "mmog-ticks";
  std::uint64_t id = 0;
  for (const auto& point : series.points) {
    workflow::Job job;
    job.id = id++;
    job.submit_time = point.time;
    job.user = "game";
    workflow::Task t;
    t.runtime = std::max(1.0, point.players / 100.0);
    job.tasks.push_back(std::move(t));
    wl.jobs.push_back(std::move(job));
  }
  autoscale::PlanAutoscaler plan;
  autoscale::ElasticConfig config;
  config.interval = 300.0;
  const auto result = autoscale::run_elastic(wl, plan, config);
  EXPECT_EQ(result.jobs.size(), wl.jobs.size());
  EXPECT_GT(result.metrics.avg_demand, 0.0);
}

namespace {

// A small chaos campaign over the serverless adapter: one design point
// swept along faults.rate only, so aggregates isolate the fault effect.
exp::CampaignSpec chaos_campaign_spec() {
  exp::CampaignSpec spec;
  spec.name = "chaos-sweep";
  spec.domain = "serverless";
  spec.mode = exp::CampaignMode::kGrid;
  spec.repeats = 3;
  spec.seed = 7;
  spec.scale = 0.2;
  spec.dims = {{"keep_alive", {"600"}},
               {"prewarmed", {"0"}},
               {"max_instances", {"128"}},
               {"faults.rate", {"0", "8", "40"}},
               {"workload.scenario", {"synthetic"}}};
  return spec;
}

// Mean success_rate at the design point whose faults.rate label is `rate`.
double success_rate_at(const exp::CampaignAggregate& aggregate,
                       const std::string& rate) {
  std::size_t rate_dim = aggregate.param_names.size();
  for (std::size_t d = 0; d < aggregate.param_names.size(); ++d)
    if (aggregate.param_names[d] == "faults.rate") rate_dim = d;
  EXPECT_LT(rate_dim, aggregate.param_names.size());
  for (const auto& point : aggregate.ranked) {
    if (point.labels[rate_dim] != rate) continue;
    for (const auto& [name, value] : point.mean_metrics)
      if (name == "success_rate") return value;
  }
  ADD_FAILURE() << "no aggregate point with faults.rate=" << rate;
  return -1.0;
}

}  // namespace

TEST(Integration, FaultSweepDegradesServerlessSuccessMonotonically) {
  // The acceptance property of the faults.* dimension: plans at a higher
  // rate are supersets of lower-rate plans at the same design point, so
  // the mean success-rate aggregate degrades monotonically along the
  // sweep, with the rate-0 baseline at exactly 1.0.
  const auto adapter = exp::make_adapter("serverless");
  exp::ResultStore store;
  const auto outcome =
      exp::run_campaign(chaos_campaign_spec(), *adapter, store, {});
  ASSERT_TRUE(outcome.complete);
  ASSERT_EQ(outcome.aggregate.points, 3u);
  const double clean = success_rate_at(outcome.aggregate, "0");
  const double light = success_rate_at(outcome.aggregate, "8");
  const double heavy = success_rate_at(outcome.aggregate, "40");
  EXPECT_DOUBLE_EQ(clean, 1.0);
  EXPECT_GE(clean, light);
  EXPECT_GE(light, heavy);
  EXPECT_LT(heavy, 1.0);
}

TEST(Integration, FaultSweepIsThreadCountInvariant) {
  // Fixed seed => byte-identical aggregates at 1, 2, and 8 threads: fault
  // plans are built per-trial from the trial descriptor, never shared.
  const auto adapter = exp::make_adapter("serverless");
  std::string reference;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    exp::ResultStore store;
    exp::RunnerConfig config;
    config.threads = threads;
    const auto outcome =
        exp::run_campaign(chaos_campaign_spec(), *adapter, store, config);
    const auto json = exp::aggregate_json(outcome.aggregate);
    if (reference.empty())
      reference = json;
    else
      EXPECT_EQ(json, reference) << threads << " threads diverged";
  }
}

TEST(Integration, FaultSweepSurvivesKillAndResume) {
  // Interrupt the chaos campaign mid-run (the executed-trials cap is how
  // CI simulates a kill), then resume against the same store: the final
  // aggregate is byte-identical to an uninterrupted run.
  const auto adapter = exp::make_adapter("serverless");
  exp::ResultStore uninterrupted;
  const auto reference = exp::run_campaign(chaos_campaign_spec(), *adapter,
                                           uninterrupted, {});

  exp::ResultStore store;
  exp::RunnerConfig interrupted;
  interrupted.max_executed = 4;  // of 9 trials
  const auto first =
      exp::run_campaign(chaos_campaign_spec(), *adapter, store, interrupted);
  EXPECT_FALSE(first.complete);
  const auto resumed =
      exp::run_campaign(chaos_campaign_spec(), *adapter, store, {});
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.stats.memoized, 4u);
  EXPECT_EQ(exp::aggregate_json(resumed.aggregate),
            exp::aggregate_json(reference.aggregate));
}

TEST(Integration, FaultInjectionMirrorsIntoObservabilityPlane) {
  // fault -> serverless -> obs, composed: every injection and recovery
  // the platform reports is visible as obs counters, and the metrics
  // JSON carries the fault series alongside the FaaS telemetry.
  const auto registry = serverless::uniform_registry(2, 0.2, 1.0);
  stats::Rng rng(8);
  const auto invocations =
      serverless::bursty_invocations(2, 0.1, 2'000.0, 500.0, 8, rng);
  fault::FaultSpec fspec;
  fspec.rate = 20.0;
  fspec.horizon = 2'000.0;
  fspec.seed = 3;
  fspec.targets = 2;
  fspec.kinds = {fault::FaultKind::kMessageLoss,
                 fault::FaultKind::kColdStartFailure};
  const auto plan = fault::FaultPlan::generate(fspec);

  obs::Observability plane;
  serverless::PlatformConfig config;
  config.obs = &plane;
  config.faults = &plan;
  config.retry.max_attempts = 2;
  config.retry.timeout = 10.0;
  const auto result = serverless::run_platform(registry, invocations, config);

  EXPECT_EQ(result.faults_injected, plan.size());
  const auto& counters = plane.metrics.counters();
  ASSERT_TRUE(counters.contains("fault.injected"));
  EXPECT_EQ(counters.at("fault.injected").value(), result.faults_injected);
  if (result.faults_recovered > 0) {
    ASSERT_TRUE(counters.contains("fault.recovered"));
    EXPECT_EQ(counters.at("fault.recovered").value(),
              result.faults_recovered);
  }
  if (result.failed_invocations > 0) {
    EXPECT_EQ(counters.at("faas.failed").value(), result.failed_invocations);
  }
  EXPECT_NE(plane.metrics.json().find("fault.injected"), std::string::npos);
}

TEST(Integration, EachMetricHasOneInstrument) {
  // One plane watches a scheduler run, a FaaS run and a swarm; every
  // metric name must belong to exactly one instrument kind (each engine
  // records its latency-like metric into a digest only).
  obs::Observability plane;

  workflow::WorkloadSpec spec;
  spec.cls = workflow::WorkloadClass::kScientific;
  spec.jobs = 10;
  spec.seed = 21;
  sched::FcfsPolicy policy;
  sched::SimOptions sim_options;
  sim_options.obs = &plane;
  sched::simulate(cluster::make_homogeneous_cluster("c", 2, 4),
                  workflow::generate(spec), policy, sim_options);

  serverless::PlatformConfig platform;
  platform.obs = &plane;
  serverless::run_platform({{"alpha", 0.2, 1.0, 128.0}},
                           {{0, 0.0}, {0, 0.1}, {0, 50.0}}, platform);

  p2p::SwarmConfig swarm;
  swarm.obs = &plane;
  stats::Rng rng(17);
  p2p::simulate_swarm(swarm, p2p::poisson_arrivals(0.05, 2'000.0, rng),
                      50'000.0);

  const auto& metrics = plane.metrics;
  std::map<std::string, int> kinds;
  for (const auto& entry : metrics.counters()) ++kinds[entry.first];
  for (const auto& entry : metrics.gauges()) ++kinds[entry.first];
  for (const auto& entry : metrics.digests()) ++kinds[entry.first];
  for (const char* name : {"sched.task_wait", "faas.latency",
                           "p2p.download_time"}) {
    EXPECT_TRUE(metrics.digests().contains(name)) << name;
  }
  for (const auto& [name, count] : kinds) EXPECT_EQ(count, 1) << name;
}
