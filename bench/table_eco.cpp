// The ecosystem composition study (Sections 2.2, 5.1): the AtLarge
// "system of systems" — serverless functions, MMOG zones, and workflow
// DAGs co-tenant on one cluster fabric, advanced by one shared clock.
// The default run prices co-tenancy by contrasting identity bindings
// (each domain on its own dedicated substrate, byte-identical to the
// standalone simulators) against cluster bindings (everyone leasing from
// the same machines). main() lists the --sharded and --workload modes and
// the flags each honours, as README.md's harness flag table does.

#include <cstdio>
#include <string>

#include "atlarge/eco/ecosystem.hpp"
#include "atlarge/mmog/zonesim.hpp"
#include "atlarge/obs/observability.hpp"
#include "atlarge/serverless/platform.hpp"
#include "atlarge/stats/rng.hpp"
#include "atlarge/workflow/generators.hpp"
#include "bench_util.hpp"
#include "workload_mode.hpp"

using namespace atlarge;

namespace {

/// The canonical composed ecosystem: every domain enabled, every binding
/// live. Deterministic on any shards x threads layout.
eco::EcosystemSpec bound_spec() {
  eco::EcosystemSpec spec;
  spec.horizon = 4'800.0;
  spec.fabric.machines = 12;
  spec.fabric.cores_per_machine = 8;
  spec.fabric.provisioning_delay = 45.0;

  spec.serverless.enabled = true;
  spec.serverless.backing = eco::ServerlessBacking::kCluster;
  spec.serverless.instance_cores = 1;
  spec.serverless.registry = {{"api", 0.08, 0.9, 128.0},
                              {"etl", 0.5, 1.8, 512.0},
                              {"ml", 1.2, 2.5, 1024.0}};
  spec.serverless.config.keep_alive = 120.0;
  spec.serverless.config.prewarmed = 0;
  stats::Rng faas_rng(17);
  spec.serverless.invocations = serverless::bursty_invocations(
      spec.serverless.registry.size(), 1.2, 3'600.0, 300.0, 40, faas_rng);

  spec.mmog.enabled = true;
  spec.mmog.provisioning = eco::ZoneProvisioning::kAutoscaled;
  spec.mmog.autoscaler = "React";
  spec.mmog.avatars_per_machine = 48;
  spec.mmog.report_interval = 30.0;
  spec.mmog.initial_machines = 1;
  spec.mmog.config.zones = 8;
  spec.mmog.config.crossing_time = 5.0;
  spec.mmog.config.act_mean = 25.0;
  spec.mmog.config.migrate_prob = 0.1;
  spec.mmog.config.session_mean = 2'400.0;
  spec.mmog.config.seed = 7;
  spec.mmog.arrivals =
      mmog::synthetic_zone_arrivals(600, spec.mmog.config.zones, 2'400.0, 7);

  spec.dags.enabled = true;
  spec.dags.scheduling = eco::DagScheduling::kSharedFabric;
  spec.dags.policy = "FCFS";
  workflow::WorkloadSpec jobs;
  jobs.cls = workflow::WorkloadClass::kSynthetic;
  jobs.jobs = 48;
  jobs.horizon = 2'400.0;
  jobs.seed = 5;
  spec.dags.workload = workflow::generate(jobs);
  return spec;
}

/// The same workloads with identity bindings: serverless on its abstract
/// instance pool, zones with unlimited capacity, DAGs on a dedicated
/// cluster. eco_test proves this composition reproduces the standalone
/// simulators exactly — it is the "no ecosystem effects" baseline.
eco::EcosystemSpec identity_spec() {
  eco::EcosystemSpec spec = bound_spec();
  spec.serverless.backing = eco::ServerlessBacking::kAbstract;
  spec.mmog.provisioning = eco::ZoneProvisioning::kUnlimited;
  spec.dags.scheduling = eco::DagScheduling::kDedicated;
  spec.dags.machines = spec.fabric.machines;
  spec.dags.cores_per_machine = spec.fabric.cores_per_machine;
  return spec;
}

void print_summary(const eco::EcosystemResult& result) {
  std::fputs(result.summary().c_str(), stdout);
  std::fprintf(stderr, "windows=%llu messages=%llu (layout-dependent)\n",
               static_cast<unsigned long long>(result.windows),
               static_cast<unsigned long long>(result.messages));
}

/// `--sharded`: the determinism contract as a CLI artifact. stdout is
/// byte-identical on every --shards/--threads layout; CI diffs them.
void sharded_mode(const bench::HarnessOptions& opts) {
  eco::EcosystemSpec spec = bound_spec();
  spec.shards = opts.shards.value_or(1);
  spec.threads = opts.threads.value_or(1);
  print_summary(eco::run_ecosystem(spec));
  std::fprintf(stderr, "shards=%llu threads=%llu\n",
               static_cast<unsigned long long>(spec.shards),
               static_cast<unsigned long long>(spec.threads));
}

void study_composition() {
  bench::header("Ecosystem composition: three domains, one fabric");
  const auto isolated = eco::run_ecosystem(identity_spec());
  const auto composed = eco::run_ecosystem(bound_spec());

  std::printf("%-28s %14s %14s\n", "metric", "isolated", "composed");
  const auto row = [](const char* name, double a, double b) {
    std::printf("%-28s %14.3f %14.3f\n", name, a, b);
  };
  row("faas p95 latency (s)", isolated.faas.p95_latency,
      composed.faas.p95_latency);
  row("faas p999 latency (s)", isolated.faas.p999_latency,
      composed.faas.p999_latency);
  row("faas cold fraction", isolated.faas.cold_fraction,
      composed.faas.cold_fraction);
  row("faas failed", static_cast<double>(isolated.faas.failed_invocations),
      static_cast<double>(composed.faas.failed_invocations));
  row("fabric faas denials",
      static_cast<double>(isolated.fabric.faas_denials),
      static_cast<double>(composed.fabric.faas_denials));
  row("zone residents", static_cast<double>(isolated.zones.residents),
      static_cast<double>(composed.zones.residents));
  row("zone queued logins",
      static_cast<double>(isolated.zones.queued_logins),
      static_cast<double>(composed.zones.queued_logins));
  row("dag mean wait (s)", isolated.dags.mean_wait, composed.dags.mean_wait);
  row("dag mean slowdown", isolated.dags.mean_slowdown,
      composed.dags.mean_slowdown);
  row("fabric machine leases",
      static_cast<double>(isolated.fabric.machine_leases),
      static_cast<double>(composed.fabric.machine_leases));
  row("fabric peak cores leased",
      static_cast<double>(isolated.fabric.peak_cores_leased),
      static_cast<double>(composed.fabric.peak_cores_leased));
  std::printf(
      "=> the isolated column is byte-identical to the standalone "
      "simulators (eco_test pins it);\n   the composed column is the same "
      "workload paying for cold provisioning, capacity grants,\n   and "
      "scheduler co-tenancy on the shared fabric.\n");
}

/// Re-runs the composed ecosystem with the observability plane attached
/// and exports the span timeline (--trace) / metrics registry
/// (--metrics-out) — the eco.* counters mirror the fabric ledger.
void instrumented_run(const char* program,
                      const bench::HarnessOptions& opts) {
  bench::header("Instrumented run (--trace/--metrics-out)");
  obs::Observability plane;
  eco::EcosystemSpec spec = bound_spec();
  spec.obs = &plane;
  const auto result = eco::run_ecosystem(spec);
  std::printf("faas p95 %.3f s, %llu machine leases, %llu grants\n",
              result.faas.p95_latency,
              static_cast<unsigned long long>(result.fabric.machine_leases),
              static_cast<unsigned long long>(result.fabric.capacity_updates));
  bench::export_plane(program, opts, plane);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::parse_flags(
      argc, argv,
      {bench::kReplay, {bench::kSharded, bench::kShards | bench::kThreads},
       {0, bench::kTrace | bench::kMetricsOut}});
  if (bench::workload_mode(argv[0], opts, "eco-faas-vs-reserved")) return 0;
  if (opts.sharded) {
    sharded_mode(opts);
    return 0;
  }
  study_composition();
  if (opts.wants_export()) instrumented_run(argv[0], opts);
  return 0;
}
