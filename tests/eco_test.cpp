// Cross-domain conformance suite for the ecosystem composition layer
// (eco::run_ecosystem). The contracts under test, per DESIGN.md section 13:
//
//  * a composed ecosystem is byte-identical across worker thread counts
//    (1/2/8) and across shard layouts, including under an active shared
//    fault plan — summary() is the canonical byte string;
//  * with identity bindings (abstract instance pool, unlimited zone
//    capacity, dedicated scheduling environment) every domain's composed
//    result exactly reproduces its standalone engine — the regression
//    anchor that pins composition overhead at zero semantic drift;
//  * a shared FaultPlan yields the same fault fingerprints composed as it
//    does standalone, and composed runs keep the chaos properties
//    (null-plan identity, replay identity);
//  * bound mode is semantically live: cluster backing creates real
//    capacity denials and provisioning latency, the autoscaler provisions
//    zone capacity, and fabric co-tenancy is visible to the scheduler.
//
// The ThreadSanitizer CI job runs this binary to certify the composed
// sharded runs.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "atlarge/cluster/machine.hpp"
#include "atlarge/eco/ecosystem.hpp"
#include "atlarge/fault/fault.hpp"
#include "atlarge/mmog/zonesim.hpp"
#include "atlarge/sched/policies.hpp"
#include "atlarge/sched/simulator.hpp"
#include "atlarge/serverless/platform.hpp"
#include "atlarge/stats/rng.hpp"
#include "atlarge/workflow/generators.hpp"
#include "chaos_util.hpp"
#include "golden_util.hpp"

namespace eco = atlarge::eco;
namespace fault = atlarge::fault;
namespace mmog = atlarge::mmog;
namespace sched = atlarge::sched;
namespace serverless = atlarge::serverless;
namespace workflow = atlarge::workflow;
namespace cluster = atlarge::cluster;
namespace chaos = atlarge::chaos;
namespace golden = atlarge::golden;

namespace {

/// All three domains enabled with identity bindings: the composed run
/// must reproduce each standalone engine byte-for-byte. The horizon
/// covers quiescence of the request-shaped domains (asserted below).
eco::EcosystemSpec identity_spec() {
  eco::EcosystemSpec spec;
  spec.horizon = 20'000.0;

  spec.serverless.enabled = true;
  spec.serverless.backing = eco::ServerlessBacking::kAbstract;
  spec.serverless.registry = {
      serverless::FunctionSpec{"thumb", 0.08, 1.2, 128.0},
      serverless::FunctionSpec{"api", 0.03, 0.8, 256.0},
  };
  atlarge::stats::Rng rng(11);
  spec.serverless.invocations =
      serverless::bursty_invocations(2, 1.5, 1'200.0, 300.0, 60, rng);
  spec.serverless.config.keep_alive = 120.0;
  spec.serverless.config.prewarmed = 1;
  spec.serverless.config.max_instances = 64;

  spec.mmog.enabled = true;
  spec.mmog.provisioning = eco::ZoneProvisioning::kUnlimited;
  spec.mmog.config.zones = 6;
  spec.mmog.config.act_mean = 25.0;
  spec.mmog.config.migrate_prob = 0.1;
  spec.mmog.config.crossing_time = 5.0;
  spec.mmog.config.session_mean = 900.0;
  spec.mmog.config.seed = 7;
  spec.mmog.arrivals = mmog::synthetic_zone_arrivals(300, 6, 1'500.0, 7);

  spec.dags.enabled = true;
  spec.dags.scheduling = eco::DagScheduling::kDedicated;
  workflow::WorkloadSpec ws;
  ws.jobs = 30;
  ws.horizon = 1'000.0;
  ws.seed = 5;
  spec.dags.workload = workflow::generate(ws);
  spec.dags.policy = "FCFS";
  spec.dags.machines = 16;
  spec.dags.cores_per_machine = 8;
  return spec;
}

/// Every binding bound to the shared fabric: serverless instances lease
/// fabric cores, zone capacity is autoscaled, DAGs schedule on the fabric.
eco::EcosystemSpec bound_spec() {
  eco::EcosystemSpec spec = identity_spec();
  spec.horizon = 3'000.0;
  spec.fabric.machines = 12;
  spec.fabric.cores_per_machine = 8;
  spec.fabric.provisioning_delay = 45.0;
  spec.serverless.backing = eco::ServerlessBacking::kCluster;
  spec.serverless.instance_cores = 2;
  spec.mmog.provisioning = eco::ZoneProvisioning::kAutoscaled;
  spec.mmog.autoscaler = "React";
  spec.mmog.avatars_per_machine = 32;
  spec.mmog.report_interval = 30.0;
  spec.mmog.initial_machines = 1;
  spec.dags.scheduling = eco::DagScheduling::kSharedFabric;
  return spec;
}

fault::FaultPlan shared_plan(double horizon, std::uint64_t seed) {
  fault::FaultSpec fs;
  fs.rate = 4.0;
  fs.horizon = horizon;
  fs.seed = seed;
  fs.targets = 12;
  fs.mean_duration = 90.0;
  return fault::FaultPlan::generate(fs);
}

// ---------------------------------------------------------------------
// Byte-identity across the threads x shard-layout matrix.

TEST(EcoConformance, ComposedByteIdenticalAcrossThreadsAndShardLayouts) {
  eco::EcosystemSpec spec = bound_spec();
  const fault::FaultPlan plan = shared_plan(spec.horizon, 13);
  spec.faults = &plan;

  spec.shards = 1;
  spec.threads = 1;
  const std::string expect = eco::run_ecosystem(spec).summary();
  ASSERT_NE(expect.find("zones.actions"), std::string::npos);

  const std::size_t layouts[][2] = {{1, 2}, {1, 8}, {2, 1},
                                    {2, 2}, {4, 2}, {8, 8}};
  for (const auto& layout : layouts) {
    spec.shards = layout[0];
    spec.threads = layout[1];
    EXPECT_EQ(expect, eco::run_ecosystem(spec).summary())
        << "shards=" << layout[0] << " threads=" << layout[1];
  }
}

TEST(EcoConformance, RepeatedRunsOfOneEcosystemAreIdentical) {
  const eco::EcosystemSpec spec = bound_spec();
  EXPECT_EQ(eco::run_ecosystem(spec).summary(),
            eco::run_ecosystem(spec).summary());
}

TEST(EcoConformance, TiedFaasArrivalsKeepLayoutInvariance) {
  // Each FaaS arrival is scheduled on LP 0 only when its predecessor
  // fires, so one tied with a zone report (kI+L) may fire before or after
  // the barrier-delivered report. The report handler writes only state
  // FaaS never reads, and the controller tick that reads it (kI+2L) is
  // local to LP 0, so no layout may move a byte.
  eco::EcosystemSpec spec = bound_spec();
  const double interval = spec.mmog.report_interval;
  const double lookahead = spec.mmog.config.crossing_time;
  auto& invocations = spec.serverless.invocations;
  for (double t = interval; t + 2.0 * lookahead <= spec.horizon;
       t += interval) {
    invocations.push_back({0, t + lookahead});
    invocations.push_back({1, t + 2.0 * lookahead});
  }
  std::stable_sort(invocations.begin(), invocations.end(),
                   [](const serverless::Invocation& a,
                      const serverless::Invocation& b) {
                     return a.arrival < b.arrival;
                   });

  spec.shards = 1;
  spec.threads = 1;
  const std::string expect = eco::run_ecosystem(spec).summary();
  const std::size_t layouts[][2] = {{2, 2}, {4, 2}, {8, 2}, {8, 8}};
  for (const auto& layout : layouts) {
    spec.shards = layout[0];
    spec.threads = layout[1];
    EXPECT_EQ(expect, eco::run_ecosystem(spec).summary())
        << "shards=" << layout[0] << " threads=" << layout[1];
  }
}

// ---------------------------------------------------------------------
// Identity bindings == standalone engines (the regression anchor).

TEST(EcoConformance, IdentityBindingsReproduceStandaloneEngines) {
  eco::EcosystemSpec spec = identity_spec();
  spec.shards = 2;
  spec.threads = 2;
  const eco::EcosystemResult composed = eco::run_ecosystem(spec);
  // Quiescence guard: everything finished well inside the horizon, so
  // the composed cut-off cannot differ from the standalone full drains.
  ASSERT_LT(composed.dags.makespan, spec.horizon);

  const serverless::PlatformResult faas = serverless::run_platform(
      spec.serverless.registry, spec.serverless.invocations,
      spec.serverless.config);
  EXPECT_EQ(golden::faas_fingerprint(composed.faas),
            golden::faas_fingerprint(faas));

  const cluster::Environment env = cluster::make_homogeneous_cluster(
      "dedicated", spec.dags.machines, spec.dags.cores_per_machine);
  sched::FcfsPolicy policy;
  const sched::SchedResult dags =
      sched::simulate(env, spec.dags.workload, policy);
  EXPECT_EQ(golden::sched_fingerprint(composed.dags),
            golden::sched_fingerprint(dags));

  mmog::ZoneSimConfig zcfg = spec.mmog.config;
  zcfg.horizon = spec.horizon;
  const mmog::ZoneSimResult zones =
      mmog::simulate_zones(zcfg, spec.mmog.arrivals);
  EXPECT_EQ(golden::zone_fingerprint(composed.zones),
            golden::zone_fingerprint(zones));

  // Identity bindings keep the fabric dark.
  EXPECT_EQ(composed.fabric.faas_leases, 0u);
  EXPECT_EQ(composed.fabric.machine_leases, 0u);
  EXPECT_EQ(composed.fabric.autoscale_decisions, 0u);
  EXPECT_EQ(composed.faas.capacity_denials, 0u);
  EXPECT_EQ(composed.zones.queued_logins, 0u);
}

TEST(EcoConformance, SharedFaultPlanMatchesStandaloneFingerprints) {
  eco::EcosystemSpec spec = identity_spec();
  const fault::FaultPlan plan = shared_plan(spec.horizon, 21);
  spec.faults = &plan;
  const eco::EcosystemResult composed = eco::run_ecosystem(spec);
  ASSERT_LT(composed.dags.makespan, spec.horizon);

  serverless::PlatformConfig fcfg = spec.serverless.config;
  fcfg.faults = &plan;
  const serverless::PlatformResult faas = serverless::run_platform(
      spec.serverless.registry, spec.serverless.invocations, fcfg);
  EXPECT_EQ(golden::faas_fingerprint(composed.faas),
            golden::faas_fingerprint(faas));

  const cluster::Environment env = cluster::make_homogeneous_cluster(
      "dedicated", spec.dags.machines, spec.dags.cores_per_machine);
  sched::FcfsPolicy policy;
  sched::SimOptions options;
  options.faults = &plan;
  const sched::SchedResult dags =
      sched::simulate(env, spec.dags.workload, policy, options);
  EXPECT_EQ(golden::sched_fingerprint(composed.dags),
            golden::sched_fingerprint(dags));

  mmog::ZoneSimConfig zcfg = spec.mmog.config;
  zcfg.horizon = spec.horizon;
  zcfg.faults = &plan;
  const mmog::ZoneSimResult zones =
      mmog::simulate_zones(zcfg, spec.mmog.arrivals);
  EXPECT_EQ(golden::zone_fingerprint(composed.zones),
            golden::zone_fingerprint(zones));
}

TEST(EcoConformance, ComposedRunsKeepTheChaosProperties) {
  eco::EcosystemSpec base = bound_spec();
  const chaos::Scenario scenario = [&base](const fault::FaultPlan* plan) {
    eco::EcosystemSpec spec = base;
    spec.faults = plan;
    return eco::run_ecosystem(spec).summary();
  };
  chaos::check_scenario(scenario, shared_plan(base.horizon, 29));
}

// ---------------------------------------------------------------------
// Bound-mode semantics: composition has real consequences.

TEST(EcoConformance, ClusterBackingCreatesContentionAndProvisioningLatency) {
  eco::EcosystemSpec spec;
  spec.horizon = 4'000.0;
  spec.fabric.machines = 2;
  spec.fabric.cores_per_machine = 2;
  spec.fabric.provisioning_delay = 40.0;
  spec.serverless.enabled = true;
  spec.serverless.backing = eco::ServerlessBacking::kCluster;
  spec.serverless.instance_cores = 1;
  spec.serverless.registry = {serverless::FunctionSpec{"slow", 50.0, 0.5}};
  spec.serverless.config.keep_alive = 30.0;
  for (std::size_t i = 0; i < 40; ++i)
    spec.serverless.invocations.push_back(
        serverless::Invocation{0, 1.0 + 0.25 * static_cast<double>(i)});

  const eco::EcosystemResult result = eco::run_ecosystem(spec);
  // 40 near-simultaneous 50 s requests against 4 cores: the substrate
  // must refuse instance leases, and refusals surface as failures.
  EXPECT_GT(result.fabric.faas_denials, 0u);
  EXPECT_EQ(result.faas.capacity_denials, result.fabric.faas_denials);
  EXPECT_GT(result.faas.failed_invocations, 0u);
  // Every machine starts powered down: the first cold start pays the
  // machine provisioning delay on top of the function's own cold start.
  ASSERT_FALSE(result.faas.invocations.empty());
  const auto& first = result.faas.invocations.front();
  EXPECT_GE(first.start - first.arrival, 40.0 + 0.5);
  EXPECT_LE(result.fabric.peak_cores_leased, 4u);
}

TEST(EcoConformance, AutoscalerProvisionsZoneCapacityOnDemand) {
  eco::EcosystemSpec spec;
  spec.horizon = 2'400.0;
  spec.fabric.machines = 8;
  spec.fabric.cores_per_machine = 4;
  spec.fabric.provisioning_delay = 45.0;
  spec.mmog.enabled = true;
  spec.mmog.provisioning = eco::ZoneProvisioning::kAutoscaled;
  spec.mmog.config.zones = 4;
  spec.mmog.config.act_mean = 20.0;
  spec.mmog.config.crossing_time = 5.0;
  spec.mmog.config.session_mean = 2'000.0;
  spec.mmog.config.seed = 3;
  spec.mmog.arrivals = mmog::synthetic_zone_arrivals(256, 4, 600.0, 3);
  spec.mmog.autoscaler = "React";
  spec.mmog.avatars_per_machine = 16;
  spec.mmog.initial_machines = 0;

  const eco::EcosystemResult result = eco::run_ecosystem(spec);
  // Zero initial machines: early logins must queue, the autoscaler must
  // react to the reported demand, and capacity grants must admit players.
  EXPECT_GT(result.zones.queued_logins, 0u);
  EXPECT_GT(result.fabric.machine_leases, 0u);
  EXPECT_GT(result.fabric.autoscale_decisions, 10u);
  EXPECT_GE(result.fabric.capacity_updates, 2u);
  EXPECT_GT(result.zones.residents, 0u);
  EXPECT_GT(result.fabric.peak_cores_leased, 0u);
}

TEST(EcoConformance, FabricCoTenancyIsVisibleToTheScheduler) {
  eco::EcosystemSpec spec;
  spec.horizon = 6'000.0;
  spec.fabric.machines = 4;
  spec.fabric.cores_per_machine = 4;
  spec.fabric.provisioning_delay = 10.0;
  spec.dags.enabled = true;
  spec.dags.scheduling = eco::DagScheduling::kSharedFabric;
  workflow::WorkloadSpec ws;
  ws.jobs = 20;
  ws.horizon = 500.0;
  ws.seed = 9;
  spec.dags.workload = workflow::generate(ws);
  spec.dags.policy = "FCFS";

  const eco::EcosystemResult alone = eco::run_ecosystem(spec);

  // Add a serverless co-tenant that holds half the fabric's cores.
  spec.serverless.enabled = true;
  spec.serverless.backing = eco::ServerlessBacking::kCluster;
  spec.serverless.instance_cores = 2;
  spec.serverless.registry = {serverless::FunctionSpec{"hold", 200.0, 0.1}};
  for (std::size_t i = 0; i < 8; ++i)
    spec.serverless.invocations.push_back(
        serverless::Invocation{0, 0.5 + 0.1 * static_cast<double>(i)});
  const eco::EcosystemResult contended = eco::run_ecosystem(spec);

  EXPECT_GT(contended.fabric.faas_leases, 0u);
  EXPECT_GE(contended.dags.mean_wait, alone.dags.mean_wait);
  EXPECT_GT(contended.dags.mean_wait, alone.dags.mean_wait)
      << "co-tenant leases did not delay any placement";
}

// ---------------------------------------------------------------------
// Spec validation.

TEST(EcoConformance, RejectsUnknownBindingsAndBadCadence) {
  eco::EcosystemSpec spec = bound_spec();
  spec.mmog.autoscaler = "NoSuchScaler";
  EXPECT_THROW(eco::run_ecosystem(spec), std::invalid_argument);

  spec = bound_spec();
  spec.dags.policy = "NoSuchPolicy";
  EXPECT_THROW(eco::run_ecosystem(spec), std::invalid_argument);

  spec = bound_spec();
  spec.mmog.report_interval = spec.mmog.config.crossing_time;  // <= 2L
  EXPECT_THROW(eco::run_ecosystem(spec), std::invalid_argument);

  spec = bound_spec();
  spec.fabric.machines = 0;
  EXPECT_THROW(eco::run_ecosystem(spec), std::invalid_argument);
}

TEST(EcoConformance, MalformedInvocationsThrowOnEveryLayout) {
  // The platform checks each invocation when it pulls it, so all but a
  // bad first one throw mid-run on LP 0; the sharded kernel rethrows the
  // exception on the caller at any shard count.
  const eco::EcosystemSpec base = bound_spec();
  const std::size_t mid = base.serverless.invocations.size() / 2;
  std::vector<eco::EcosystemSpec> bad(3, base);
  std::swap(bad[0].serverless.invocations[mid].arrival,
            bad[0].serverless.invocations[mid + 1].arrival);  // unsorted
  bad[1].serverless.invocations.front().arrival = -1.0;
  bad[2].serverless.invocations[mid].function = 99;  // unknown function
  for (eco::EcosystemSpec& spec : bad) {
    for (const std::size_t shards : {1, 4}) {
      spec.shards = shards;
      spec.threads = shards == 1 ? 1 : 2;
      EXPECT_THROW(eco::run_ecosystem(spec), std::invalid_argument)
          << "shards=" << shards;
    }
  }
}

}  // namespace
