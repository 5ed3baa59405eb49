#pragma once
// Ecosystem composition layer (paper Sections 4.2, 6.1): the domain
// simulators plugged into one "system of systems" on a single shared
// clock, so cross-domain resource contention and fault propagation are
// real instead of modeled per-domain in isolation.
//
// An EcosystemSpec declares which domains run and how they bind:
//  * serverless x cluster — the FaaS platform's abstract instance pool is
//    backed by the shared cluster fabric (serverless::InstanceBacking):
//    cold starts become real machine provisioning, and capacity denials
//    appear when co-tenants hold the cores.
//  * mmog x autoscale — zone login capacity is provisioned by an
//    autoscaler from the zoo instead of being unlimited: zones report
//    population upstream, the controller leases whole machines from the
//    fabric, and capacity grants flow back after the provisioning delay.
//  * workflow x sched — DAG jobs run under a scheduling policy (or the
//    portfolio scheduler) either on a dedicated environment or on the
//    fabric itself, where serverless/mmog leases are indistinguishable
//    from cores occupied by running tasks.
//
// Every binding has an *identity* setting (kAbstract / kUnlimited /
// kDedicated) under which the composed run reproduces the standalone
// engine byte-for-byte — the regression anchor the conformance suite
// (tests/eco_test.cpp) pins.
//
// Determinism contract (DESIGN.md section 13): results are byte-identical
// across threads and shard layouts. The core tier (fabric, serverless,
// scheduler, autoscale controller) always lives on LP 0; MMOG zones
// spread over LPs 1..S-1 when S >= 2 (all on LP 0 when S == 1). Cross-LP
// traffic uses namespaced message keys (report/grant key bases above any
// avatar id) and regular-time offset classes that cannot collide with the
// continuous RNG-derived domain timestamps.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "atlarge/mmog/zonesim.hpp"
#include "atlarge/sched/simulator.hpp"
#include "atlarge/serverless/platform.hpp"
#include "atlarge/sim/sharded.hpp"
#include "atlarge/workflow/job.hpp"

namespace atlarge::obs {
class Observability;
}

namespace atlarge::fault {
class FaultPlan;
}

namespace atlarge::eco {

/// How the serverless platform's instances are backed.
enum class ServerlessBacking {
  kAbstract,  ///< identity: the platform's own pool, no fabric interaction
  kCluster,   ///< instances lease cores from the shared cluster fabric
};

/// How MMOG zone login capacity is provisioned.
enum class ZoneProvisioning {
  kUnlimited,   ///< identity: no caps, byte-identical to simulate_zones
  kAutoscaled,  ///< capacity = machines leased from the fabric by a policy
};

/// Where workflow DAGs are scheduled.
enum class DagScheduling {
  kDedicated,     ///< identity: own environment, equals sched::simulate
  kSharedFabric,  ///< jobs placed on fabric machines, contending with leases
};

/// The shared datacenter substrate every kCluster/kAutoscaled/
/// kSharedFabric binding draws from.
struct FabricSpec {
  std::size_t machines = 16;
  std::uint32_t cores_per_machine = 8;
  double machine_speed = 1.0;
  /// Cold machine power-up time: the extra latency a serverless cold
  /// start pays when its lease activates an idle machine, and the delay
  /// before an autoscale machine grant becomes zone capacity.
  double provisioning_delay = 45.0;
};

struct ServerlessSpec {
  bool enabled = false;
  ServerlessBacking backing = ServerlessBacking::kAbstract;
  std::vector<serverless::FunctionSpec> registry;
  /// run_platform's precondition (nonnegative, nondecreasing arrivals;
  /// indices inside `registry`); a violation throws std::invalid_argument
  /// from run() when the platform pulls it, mid-run on any layout.
  std::vector<serverless::Invocation> invocations;
  /// Platform knobs. `config.obs` and `config.faults` are overridden by
  /// the ecosystem-level plane/plan; set those on EcosystemSpec instead.
  serverless::PlatformConfig config;
  /// Fabric cores one instance leases (kCluster backing only).
  std::uint32_t instance_cores = 1;
};

struct MmogSpec {
  bool enabled = false;
  ZoneProvisioning provisioning = ZoneProvisioning::kUnlimited;
  /// World knobs. `config.shard`, `config.obs`, and `config.faults` are
  /// ignored — the ecosystem owns layout, plane, and plan.
  mmog::ZoneSimConfig config;
  std::vector<mmog::ZoneArrival> arrivals;
  // --- kAutoscaled knobs -------------------------------------------------
  /// Autoscaler name from autoscale::standard_autoscalers()
  /// ("React", "Adapt", "Hist", "Reg", "ConPaaS", "Plan", "Token").
  std::string autoscaler = "React";
  /// Avatars one leased machine can host (capacity currency).
  std::uint32_t avatars_per_machine = 64;
  /// Zone population report cadence; the controller ticks one lookahead
  /// after the reports land. Must exceed 2 * config.crossing_time.
  double report_interval = 30.0;
  /// Machines leased (and provisioned for free) before t = 0.
  std::size_t initial_machines = 1;
};

struct WorkflowSpec {
  bool enabled = false;
  DagScheduling scheduling = DagScheduling::kDedicated;
  workflow::Workload workload;
  /// Policy zoo name ("FCFS", "EASY-BF", "SJF", "LJF", "WIDE", "RANDOM",
  /// "FAIR") or "PORTFOLIO" for the portfolio scheduler over the full zoo.
  std::string policy = "FCFS";
  std::uint64_t policy_seed = 42;  // RANDOM / PORTFOLIO streams
  // --- kDedicated environment (ignored for kSharedFabric) ----------------
  std::size_t machines = 16;
  std::uint32_t cores_per_machine = 8;
};

/// Declarative description of one composed run.
struct EcosystemSpec {
  FabricSpec fabric;
  ServerlessSpec serverless;
  MmogSpec mmog;
  WorkflowSpec dags;
  /// Shared-clock horizon. Results are exact as long as the horizon
  /// covers quiescence of the request-shaped domains (last invocation
  /// finish, last job finish); see DESIGN.md section 13.
  double horizon = 14'400.0;
  /// Shared fault plan (not owned, may be null). Domain kinds route to
  /// each domain's own injector exactly as standalone; kMachineCrash
  /// additionally routes through the fabric when any binding uses it.
  const fault::FaultPlan* faults = nullptr;
  /// Optional instrumentation plane (not owned): kernel observer and
  /// sampling hook attach to the core LP, the run is wrapped in an
  /// "eco.run" span, and fabric counters are mirrored as eco.* metrics.
  obs::Observability* obs = nullptr;
  /// Requested shard count (clamped: the core tier pins to LP 0, zones
  /// use the rest; without mmog everything collapses to one LP).
  std::size_t shards = 1;
  std::size_t threads = 1;
};

/// Fabric-side counters of one composed run.
struct FabricStats {
  std::uint64_t faas_leases = 0;       // instance leases granted
  std::uint64_t faas_denials = 0;      // instance leases refused (no cores)
  std::uint64_t machine_leases = 0;    // whole-machine grants to autoscale
  std::uint64_t machine_returns = 0;   // whole machines handed back
  std::uint64_t crashes = 0;           // kMachineCrash injections applied
  std::uint64_t autoscale_decisions = 0;
  std::uint64_t capacity_updates = 0;  // capacity pushes to the zone tier
  std::uint32_t peak_cores_leased = 0;
  std::uint32_t final_machines_leased = 0;
};

struct EcosystemResult {
  serverless::PlatformResult faas;
  mmog::ZoneSimResult zones;
  sched::SchedResult dags;
  FabricStats fabric;
  // Diagnostics of the sharded run; layout-dependent by construction and
  // therefore excluded from summary().
  std::uint64_t windows = 0;
  std::uint64_t messages = 0;

  /// Layout-invariant key/value rendering (%.17g doubles) — the byte
  /// string the conformance suite and the eco-smoke golden compare. Two
  /// runs of one spec at any shards x threads produce identical text.
  std::string summary() const;
};

/// Runs one composed ecosystem on a fresh shared kernel. Deterministic
/// for a fixed spec: repeated runs of one spec return identical results.
EcosystemResult run_ecosystem(const EcosystemSpec& spec);

}  // namespace atlarge::eco
