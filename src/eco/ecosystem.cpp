#include "atlarge/eco/ecosystem.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "atlarge/autoscale/autoscalers.hpp"
#include "atlarge/cluster/machine.hpp"
#include "atlarge/fault/fault.hpp"
#include "atlarge/fault/injector.hpp"
#include "atlarge/obs/observability.hpp"
#include "atlarge/sched/policies.hpp"
#include "atlarge/sched/portfolio.hpp"

namespace atlarge::eco {
namespace {

// Cross-LP message key namespaces. ShardedSimulation breaks delivery ties
// by (at, key, src, seq); avatar migrations use avatar ids as keys, so the
// composition layer's control messages live in disjoint high ranges.
constexpr std::uint64_t kReportKeyBase = std::uint64_t{1} << 48;
constexpr std::uint64_t kGrantKeyBase = std::uint64_t{1} << 49;

// -------------------------------------------------------------- fabric --

/// The shared datacenter substrate. Core-LP-only state: every method runs
/// either before the kernel starts or from an LP 0 event.
///
/// Two ledgers, one at a time: with a SchedDriver bound (workflow tenant
/// on the fabric) per-machine free cores live in the scheduler — leases
/// are reserve_cores/release_cores, indistinguishable from running tasks.
/// Without one the fabric keeps its own slot table with the same policy.
///
/// Lease policy (deterministic by construction): serverless instances
/// prefer the lowest-id *warm* machine (one already hosting work), else
/// power up the lowest-id idle machine and charge the provisioning delay;
/// the autoscaler leases whole idle machines lowest-id first and returns
/// them highest-id first (scale-down drains the newest machines).
class ClusterFabric final : public serverless::InstanceBacking {
 public:
  ClusterFabric(const FabricSpec& spec, sim::Simulation& core,
                FabricStats& stats)
      : spec_(spec), core_(core), stats_(stats) {
    slots_.resize(spec_.machines);
    for (auto& s : slots_) s.free = spec_.cores_per_machine;
    mmog_leased_.assign(spec_.machines, 0);
  }

  void bind_sched(sched::SchedDriver* sched) { sched_ = sched; }
  void bind_faas(serverless::PlatformDriver* faas) { faas_ = faas; }
  void set_instance_cores(std::uint32_t cores) { instance_cores_ = cores; }

  // serverless::InstanceBacking ------------------------------------------
  bool acquire(std::size_t /*function*/, std::uint32_t& machine,
               double& extra_latency) override {
    const std::size_t n = spec_.machines;
    std::size_t cold = n;
    std::size_t pick = n;
    for (std::size_t mi = 0; mi < n; ++mi) {
      if (down(mi) || mmog_leased_[mi] != 0) continue;
      const std::uint32_t f = free(mi);
      if (f < instance_cores_) continue;
      if (f == total(mi)) {
        if (cold == n) cold = mi;
      } else {
        pick = mi;  // lowest-id warm machine wins
        break;
      }
    }
    const bool powered_up = pick == n;
    if (powered_up) pick = cold;
    if (pick == n) {
      ++stats_.faas_denials;
      return false;
    }
    take(pick, instance_cores_);
    ++stats_.faas_leases;
    machine = static_cast<std::uint32_t>(pick);
    extra_latency = powered_up ? spec_.provisioning_delay : 0.0;
    return true;
  }

  void release(std::uint32_t machine) override {
    give(machine, instance_cores_);
  }

  // autoscale whole-machine leases ---------------------------------------
  std::size_t lease_machines(std::size_t want) {
    std::size_t got = 0;
    for (std::size_t mi = 0; mi < spec_.machines && got < want; ++mi) {
      if (down(mi) || mmog_leased_[mi] != 0) continue;
      if (free(mi) != total(mi)) continue;  // whole idle machines only
      take(mi, total(mi));
      mmog_leased_[mi] = 1;
      ++got;
      ++stats_.machine_leases;
    }
    return got;
  }

  std::size_t return_machines(std::size_t count) {
    std::size_t returned = 0;
    for (std::size_t mi = spec_.machines; mi-- > 0 && returned < count;) {
      if (mmog_leased_[mi] == 0) continue;
      mmog_leased_[mi] = 0;
      give(mi, total(mi));
      ++returned;
      ++stats_.machine_returns;
    }
    return returned;
  }

  // fault routing --------------------------------------------------------
  void crash(std::uint32_t target, double duration) {
    const std::size_t mi = target % spec_.machines;
    if (down(mi)) return;  // overlapping crash, already down
    ++stats_.crashes;
    if (sched_ != nullptr) {
      sched_->fail_machine(mi, duration);
    } else {
      slots_[mi].down = true;
      core_.schedule_after(duration,
                           [this, mi] { slots_[mi].down = false; });
    }
    // Autoscale leases survive the outage (zone capacity is redundant
    // game-server state); serverless instances on the machine die.
    if (faas_ != nullptr) faas_->fail_machine(static_cast<std::uint32_t>(mi));
  }

 private:
  struct Slot {
    std::uint32_t free = 0;
    bool down = false;
  };

  bool down(std::size_t mi) const {
    return sched_ != nullptr ? sched_->machine_down(mi) : slots_[mi].down;
  }
  std::uint32_t free(std::size_t mi) const {
    return sched_ != nullptr ? sched_->free_cores_on(mi) : slots_[mi].free;
  }
  std::uint32_t total(std::size_t mi) const {
    return sched_ != nullptr ? sched_->total_cores_on(mi)
                             : spec_.cores_per_machine;
  }
  void take(std::size_t mi, std::uint32_t cores) {
    if (sched_ != nullptr) {
      const bool ok = sched_->reserve_cores(mi, cores);
      assert(ok);
      (void)ok;
    } else {
      slots_[mi].free -= cores;
    }
    cores_leased_ += cores;
    stats_.peak_cores_leased = std::max(stats_.peak_cores_leased, cores_leased_);
  }
  void give(std::size_t mi, std::uint32_t cores) {
    if (sched_ != nullptr) {
      sched_->release_cores(mi, cores);
    } else {
      slots_[mi].free = std::min(spec_.cores_per_machine,
                                 slots_[mi].free + cores);
    }
    cores_leased_ -= std::min(cores_leased_, cores);
  }

  const FabricSpec spec_;
  sim::Simulation& core_;
  FabricStats& stats_;
  std::vector<Slot> slots_;
  std::vector<std::uint8_t> mmog_leased_;
  sched::SchedDriver* sched_ = nullptr;
  serverless::PlatformDriver* faas_ = nullptr;
  std::uint32_t instance_cores_ = 1;
  std::uint32_t cores_leased_ = 0;
};

// ------------------------------------------------------------- helpers --

std::unique_ptr<autoscale::Autoscaler> make_autoscaler(
    const std::string& name) {
  auto zoo = autoscale::standard_autoscalers();
  for (auto& scaler : zoo)
    if (scaler->name() == name) return std::move(scaler);
  throw std::invalid_argument("eco: unknown autoscaler \"" + name + "\"");
}

std::unique_ptr<sched::Policy> make_policy(const WorkflowSpec& spec,
                                           const cluster::Environment& env) {
  if (spec.policy == "PORTFOLIO") {
    sched::PortfolioConfig config;
    config.seed = spec.policy_seed;
    return std::make_unique<sched::PortfolioScheduler>(
        sched::standard_policies(spec.policy_seed), env, config);
  }
  auto zoo = sched::standard_policies(spec.policy_seed);
  for (auto& policy : zoo)
    if (policy->name() == spec.policy) return std::move(policy);
  throw std::invalid_argument("eco: unknown policy \"" + spec.policy + "\"");
}

void append_kv(std::string& out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += key;
  out += ' ';
  out += buf;
  out += '\n';
}

void append_kv(std::string& out, const char* key, std::uint64_t value) {
  out += key;
  out += ' ';
  out += std::to_string(value);
  out += '\n';
}

// -------------------------------------------------------------- engine --

/// One composed run. Layout: the core tier (fabric, serverless platform,
/// scheduler, autoscale controller) lives on LP 0; zones spread over LPs
/// zone_lp_base..zone_lp_base+zone_lp_count-1. Member order doubles as
/// construction/destruction order: the kernel outlives every driver.
struct EcoEngine {
  explicit EcoEngine(const EcosystemSpec& s) : spec(s) {}

  const EcosystemSpec& spec;
  EcosystemResult result;

  std::unique_ptr<sim::ShardedSimulation> sharded;
  std::size_t zone_lp_base = 0;
  std::size_t zone_lp_count = 1;
  double lookahead = 0.0;

  std::unique_ptr<ClusterFabric> fabric;
  std::unique_ptr<fault::Injector> fabric_injector;

  serverless::PlatformConfig faas_config;
  std::unique_ptr<serverless::PlatformDriver> faas;

  cluster::Environment dag_env;
  sched::SimOptions dag_options;
  std::unique_ptr<sched::Policy> dag_policy;
  std::unique_ptr<sched::SchedDriver> dags;

  mmog::ZoneSimConfig zone_config;
  std::unique_ptr<mmog::ZoneWorld> world;

  std::unique_ptr<autoscale::Autoscaler> scaler;
  std::vector<std::uint64_t> zone_pop;
  std::vector<std::uint64_t> zone_queue;
  std::uint32_t leased = 0;
  std::uint32_t pending = 0;

  std::size_t world_lp(std::size_t zone) const {
    return zone_lp_base + zone % zone_lp_count;
  }

  void validate() const {
    if (spec.horizon <= 0.0)
      throw std::invalid_argument("eco: horizon must be positive");
    if (spec.mmog.enabled && spec.mmog.config.zones == 0)
      throw std::invalid_argument("eco: mmog needs at least one zone");
    if (spec.mmog.enabled &&
        spec.mmog.provisioning == ZoneProvisioning::kAutoscaled) {
      if (spec.mmog.config.crossing_time <= 0.0)
        throw std::invalid_argument(
            "eco: autoscaled zones need crossing_time > 0");
      if (spec.mmog.report_interval <= 2.0 * spec.mmog.config.crossing_time)
        throw std::invalid_argument(
            "eco: report_interval must exceed 2 * crossing_time");
      if (spec.mmog.avatars_per_machine == 0)
        throw std::invalid_argument("eco: avatars_per_machine must be >= 1");
    }
    const bool needs_fabric = uses_fabric();
    if (needs_fabric && spec.fabric.machines == 0)
      throw std::invalid_argument("eco: fabric bindings need machines >= 1");
    if (spec.serverless.enabled &&
        spec.serverless.backing == ServerlessBacking::kCluster &&
        spec.serverless.instance_cores > spec.fabric.cores_per_machine)
      throw std::invalid_argument(
          "eco: instance_cores exceeds cores_per_machine");
  }

  bool uses_fabric() const {
    return (spec.serverless.enabled &&
            spec.serverless.backing == ServerlessBacking::kCluster) ||
           (spec.mmog.enabled &&
            spec.mmog.provisioning == ZoneProvisioning::kAutoscaled) ||
           (spec.dags.enabled &&
            spec.dags.scheduling == DagScheduling::kSharedFabric);
  }

  void build_kernel() {
    // Without zones there is nothing to parallelize: every domain shares
    // LP 0's total event order, so extra shards would only add barriers.
    std::size_t shards = 1;
    if (spec.mmog.enabled) {
      const std::size_t zones = spec.mmog.config.zones;
      const std::size_t wanted = std::max<std::size_t>(1, spec.shards);
      if (wanted >= 2) {
        zone_lp_base = 1;
        zone_lp_count = std::min(wanted - 1, zones);
        shards = 1 + zone_lp_count;
      } else {
        zone_lp_base = 0;
        zone_lp_count = 1;
      }
      lookahead = spec.mmog.config.crossing_time;
    }
    sim::ShardOptions options;
    options.shards = shards;
    options.threads = std::max<std::size_t>(1, spec.threads);
    options.lookahead = lookahead;
    sharded = std::make_unique<sim::ShardedSimulation>(options);
  }

  // ------------------------------------------------- autoscale controller
  // Cadence (I = report_interval, L = lookahead, D = provisioning_delay):
  // zones report population at t = k*I, reports land on LP 0 at k*I + L,
  // the controller ticks at k*I + 2L, scale-down capacity arrives at the
  // zones at k*I + 2L + L, scale-up capacity at k*I + 2L + D + L. All
  // offsets are fixed across shard layouts, and control messages use key
  // namespaces disjoint from avatar ids, so delivery order is
  // layout-invariant.

  void emit_report(std::size_t zone) {
    sim::Simulation& lp = sharded->lp(world_lp(zone));
    const double now = lp.now();
    const std::uint64_t pop = world->population(zone);
    const std::uint64_t queue = world->queue_length(zone);
    sharded->send(world_lp(zone), 0, now + lookahead, kReportKeyBase + zone,
                  [this, zone, pop, queue] {
                    zone_pop[zone] = pop;
                    zone_queue[zone] = queue;
                  });
    const double next = now + spec.mmog.report_interval;
    if (next <= spec.horizon)
      lp.schedule_at(next, [this, zone] { emit_report(zone); });
  }

  void autoscale_tick() {
    ++result.fabric.autoscale_decisions;
    std::uint64_t pop = 0;
    std::uint64_t queued = 0;
    for (std::size_t z = 0; z < zone_pop.size(); ++z) {
      pop += zone_pop[z];
      queued += zone_queue[z];
    }
    const std::uint32_t cpm = spec.fabric.cores_per_machine;
    const std::uint64_t apm = spec.mmog.avatars_per_machine;
    const std::uint64_t demand_machines = (pop + queued + apm - 1) / apm;
    autoscale::Observation obs;
    obs.now = sharded->lp(0).now();
    obs.demand_cores = static_cast<double>(demand_machines) * cpm;
    obs.supply_machines = leased;
    obs.pending_machines = pending;
    obs.cores_per_machine = cpm;
    obs.queued_tasks = static_cast<std::size_t>(queued);
    std::uint32_t target = scaler->target_machines(obs);
    target = std::min(target,
                      static_cast<std::uint32_t>(spec.fabric.machines));
    const std::uint32_t have = leased + pending;
    if (target > have) {
      const std::size_t got = fabric->lease_machines(target - have);
      if (got > 0) {
        pending += static_cast<std::uint32_t>(got);
        sharded->lp(0).schedule_after(
            spec.fabric.provisioning_delay, [this, got] {
              pending -= static_cast<std::uint32_t>(got);
              leased += static_cast<std::uint32_t>(got);
              push_capacity();
            });
      }
    } else if (target < leased) {
      const std::size_t returned = fabric->return_machines(leased - target);
      if (returned > 0) {
        leased -= static_cast<std::uint32_t>(returned);
        push_capacity();
      }
    }
    const double next = obs.now + spec.mmog.report_interval;
    if (next <= spec.horizon)
      sharded->lp(0).schedule_at(next, [this] { autoscale_tick(); });
  }

  void push_capacity() {
    ++result.fabric.capacity_updates;
    const double now = sharded->lp(0).now();
    const std::uint64_t total =
        static_cast<std::uint64_t>(leased) * spec.mmog.avatars_per_machine;
    const std::size_t zones = zone_config.zones;
    for (std::size_t z = 0; z < zones; ++z) {
      std::uint64_t cap = total / zones + (z < total % zones ? 1 : 0);
      cap = std::min<std::uint64_t>(
          cap, std::numeric_limits<std::uint32_t>::max());
      sharded->send(0, world_lp(z), now + lookahead, kGrantKeyBase + z,
                    [this, z, cap] {
                      world->set_capacity(z, static_cast<std::uint32_t>(cap));
                    });
    }
  }

  void seed_initial_capacity() {
    const std::size_t got = fabric->lease_machines(spec.mmog.initial_machines);
    leased = static_cast<std::uint32_t>(got);
    ++result.fabric.capacity_updates;
    const std::uint64_t total =
        static_cast<std::uint64_t>(leased) * spec.mmog.avatars_per_machine;
    const std::size_t zones = zone_config.zones;
    for (std::size_t z = 0; z < zones; ++z) {
      std::uint64_t cap = total / zones + (z < total % zones ? 1 : 0);
      cap = std::min<std::uint64_t>(
          cap, std::numeric_limits<std::uint32_t>::max());
      world->set_capacity(z, static_cast<std::uint32_t>(cap));
    }
  }

  // ------------------------------------------------------------------ run
  EcosystemResult run() {
    validate();
    build_kernel();
    sim::Simulation& core = sharded->lp(0);

    obs::Observability* plane = spec.obs;
    if (plane != nullptr) {
      plane->attach(core);
      plane->tracer.begin("eco.run", "eco", 0.0);
    }

    if (uses_fabric())
      fabric = std::make_unique<ClusterFabric>(spec.fabric, core,
                                               result.fabric);

    // Construction: serverless, dags, zones — then binding, then
    // preparation in the same fixed order (the order defines event
    // sequence numbers on LP 0 and is part of the determinism contract).
    if (spec.serverless.enabled) {
      faas_config = spec.serverless.config;
      faas_config.obs = plane;
      faas_config.faults = spec.faults;
      const bool bound =
          spec.serverless.backing == ServerlessBacking::kCluster;
      if (bound) fabric->set_instance_cores(spec.serverless.instance_cores);
      faas = std::make_unique<serverless::PlatformDriver>(
          spec.serverless.registry, spec.serverless.invocations, faas_config,
          core, bound ? fabric.get() : nullptr);
      if (bound) fabric->bind_faas(faas.get());
    }

    if (spec.dags.enabled) {
      const bool shared =
          spec.dags.scheduling == DagScheduling::kSharedFabric;
      dag_env = shared
                    ? cluster::make_homogeneous_cluster(
                          "fabric", spec.fabric.machines,
                          spec.fabric.cores_per_machine,
                          spec.fabric.machine_speed)
                    : cluster::make_homogeneous_cluster(
                          "dedicated", spec.dags.machines,
                          spec.dags.cores_per_machine);
      dag_options.obs = plane;
      // On the shared fabric the composition layer owns machine crashes
      // (routed through the fabric so serverless instances die too);
      // dedicated scheduling attaches its own injector like standalone.
      dag_options.faults = shared ? nullptr : spec.faults;
      dag_policy = make_policy(spec.dags, dag_env);
      dags = std::make_unique<sched::SchedDriver>(
          dag_env, spec.dags.workload, *dag_policy, dag_options, core);
      if (shared) fabric->bind_sched(dags.get());
    }

    if (spec.mmog.enabled) {
      zone_config = spec.mmog.config;
      zone_config.horizon = spec.horizon;
      zone_config.shard = sim::ShardOptions{};
      zone_config.obs = nullptr;  // the eco layer owns the plane
      zone_config.faults = spec.faults;
      world = std::make_unique<mmog::ZoneWorld>(zone_config,
                                                spec.mmog.arrivals, *sharded,
                                                zone_lp_base, zone_lp_count);
    }

    // Fabric crash routing attaches first on LP 0: at tied timestamps a
    // machine crash lands before the work it would have hosted.
    if (fabric != nullptr && spec.faults != nullptr) {
      fabric_injector = std::make_unique<fault::Injector>(*spec.faults, plane);
      fabric_injector->on_kind(
          fault::FaultKind::kMachineCrash,
          [this](const fault::FaultEvent& e) {
            fabric->crash(e.target, e.duration);
          });
      core.set_fault_hook(fabric_injector.get());
    }

    if (faas != nullptr) faas->prepare();
    if (dags != nullptr) dags->prepare();

    const bool autoscaled =
        spec.mmog.enabled &&
        spec.mmog.provisioning == ZoneProvisioning::kAutoscaled;
    if (autoscaled) {
      scaler = make_autoscaler(spec.mmog.autoscaler);
      zone_pop.assign(zone_config.zones, 0);
      zone_queue.assign(zone_config.zones, 0);
      seed_initial_capacity();
      const double first_tick =
          spec.mmog.report_interval + 2.0 * lookahead;
      if (first_tick <= spec.horizon)
        core.schedule_at(first_tick, [this] { autoscale_tick(); });
    }

    if (world != nullptr) {
      world->prepare();
      if (autoscaled) {
        for (std::size_t z = 0; z < zone_config.zones; ++z) {
          sharded->lp(world_lp(z)).schedule_at(
              spec.mmog.report_interval, [this, z] { emit_report(z); });
        }
      }
    }

    sharded->run_until(spec.horizon);

    if (faas != nullptr) result.faas = faas->collect();
    if (dags != nullptr) result.dags = dags->collect();
    if (world != nullptr) result.zones = world->collect();
    result.fabric.final_machines_leased = leased + pending;
    result.windows = sharded->windows();
    result.messages = sharded->messages();

    if (plane != nullptr) {
      auto& m = plane->metrics;
      m.counter("eco.faas_leases").add(result.fabric.faas_leases);
      m.counter("eco.faas_denials").add(result.fabric.faas_denials);
      m.counter("eco.machine_leases").add(result.fabric.machine_leases);
      m.counter("eco.machine_returns").add(result.fabric.machine_returns);
      m.counter("eco.crashes").add(result.fabric.crashes);
      m.counter("eco.autoscale_decisions")
          .add(result.fabric.autoscale_decisions);
      m.counter("eco.capacity_updates").add(result.fabric.capacity_updates);
      m.gauge("eco.peak_cores_leased")
          .set(static_cast<double>(result.fabric.peak_cores_leased));
      plane->tracer.end("eco.run", "eco", spec.horizon);
    }
    return std::move(result);
  }
};

}  // namespace

// ------------------------------------------------------------- summary --

std::string EcosystemResult::summary() const {
  std::string out = "eco summary v1\n";
  append_kv(out, "faas.invocations",
            static_cast<std::uint64_t>(faas.invocations.size()));
  append_kv(out, "faas.p50_latency", faas.p50_latency);
  append_kv(out, "faas.p95_latency", faas.p95_latency);
  append_kv(out, "faas.p99_latency", faas.p99_latency);
  append_kv(out, "faas.cold_fraction", faas.cold_fraction);
  append_kv(out, "faas.billed_instance_seconds",
            faas.billed_instance_seconds);
  append_kv(out, "faas.busy_instance_seconds", faas.busy_instance_seconds);
  append_kv(out, "faas.peak_instances",
            static_cast<std::uint64_t>(faas.peak_instances));
  append_kv(out, "faas.failed_invocations",
            static_cast<std::uint64_t>(faas.failed_invocations));
  append_kv(out, "faas.retries", static_cast<std::uint64_t>(faas.retries));
  append_kv(out, "faas.success_rate", faas.success_rate);
  append_kv(out, "faas.capacity_denials",
            static_cast<std::uint64_t>(faas.capacity_denials));
  append_kv(out, "zones.actions", zones.actions);
  append_kv(out, "zones.migrations", zones.migrations);
  append_kv(out, "zones.arrivals", zones.arrivals);
  append_kv(out, "zones.departures", zones.departures);
  append_kv(out, "zones.churned", zones.churned);
  append_kv(out, "zones.residents", zones.residents);
  append_kv(out, "zones.queued_logins", zones.queued_logins);
  append_kv(out, "zones.session_seconds_x1e6", zones.session_seconds_x1e6);
  out += "zones.population";
  for (const std::uint32_t p : zones.final_population) {
    out += ' ';
    out += std::to_string(p);
  }
  out += '\n';
  append_kv(out, "dags.jobs", static_cast<std::uint64_t>(dags.jobs.size()));
  append_kv(out, "dags.makespan", dags.makespan);
  append_kv(out, "dags.mean_wait", dags.mean_wait);
  append_kv(out, "dags.mean_slowdown", dags.mean_slowdown);
  append_kv(out, "dags.p95_slowdown", dags.p95_slowdown);
  append_kv(out, "dags.utilization", dags.utilization);
  append_kv(out, "dags.tasks_completed",
            static_cast<std::uint64_t>(dags.tasks_completed));
  append_kv(out, "dags.tasks_requeued",
            static_cast<std::uint64_t>(dags.tasks_requeued));
  append_kv(out, "fabric.faas_leases", fabric.faas_leases);
  append_kv(out, "fabric.faas_denials", fabric.faas_denials);
  append_kv(out, "fabric.machine_leases", fabric.machine_leases);
  append_kv(out, "fabric.machine_returns", fabric.machine_returns);
  append_kv(out, "fabric.crashes", fabric.crashes);
  append_kv(out, "fabric.autoscale_decisions", fabric.autoscale_decisions);
  append_kv(out, "fabric.capacity_updates", fabric.capacity_updates);
  append_kv(out, "fabric.peak_cores_leased",
            static_cast<std::uint64_t>(fabric.peak_cores_leased));
  append_kv(out, "fabric.final_machines_leased",
            static_cast<std::uint64_t>(fabric.final_machines_leased));
  return out;
}

// ----------------------------------------------------------- ecosystem --

EcosystemResult run_ecosystem(const EcosystemSpec& spec) {
  EcoEngine engine(spec);
  return engine.run();
}

}  // namespace atlarge::eco
