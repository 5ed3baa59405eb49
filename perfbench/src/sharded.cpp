// sharded-worlds: the conservative-window kernel in its two regimes.
//   * Mailbox-bound: the 1M-avatar world and the 1M-peer swarm network
//     (1.35M and 1.0M cross-LP messages over ~120 and ~34 windows).
//   * Barrier-bound: a seed sweep of the 12k-avatar/64-zone world and the
//     composed ecosystem, hundreds of windows of tens of microseconds each.
// Everything runs at 8 shards x `threads` (2 by default). A window change
// and a mailbox change each show on one regime and cannot hide a cost on
// the other.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "atlarge/eco/ecosystem.hpp"
#include "atlarge/mmog/zonesim.hpp"
#include "atlarge/p2p/swarmnet.hpp"
#include "atlarge/serverless/platform.hpp"
#include "atlarge/stats/rng.hpp"
#include "atlarge/workflow/generators.hpp"
#include "bench.hpp"

using namespace atlarge;

namespace perfbench {
namespace {

constexpr std::size_t kShards = 8;

mmog::ZoneSimConfig zone_world(std::size_t zones, double horizon,
                               std::uint64_t seed) {
  mmog::ZoneSimConfig config;
  config.zones = zones;
  config.act_mean = 30.0;
  config.migrate_prob = 0.08;
  config.crossing_time = 5.0;
  config.session_mean = 900.0;
  config.horizon = horizon;
  config.seed = seed;
  return config;
}

/// BM_EcosystemComposed's spec with every input seed derived from `seed`.
eco::EcosystemSpec eco_spec(std::uint64_t seed, bool reduced) {
  eco::EcosystemSpec spec;
  spec.horizon = 4'800.0;
  spec.fabric.machines = 16;
  spec.fabric.cores_per_machine = 8;
  spec.fabric.provisioning_delay = 45.0;

  spec.serverless.enabled = true;
  spec.serverless.backing = eco::ServerlessBacking::kCluster;
  spec.serverless.instance_cores = 1;
  spec.serverless.registry = {{"api", 0.08, 0.9, 128.0},
                              {"etl", 0.5, 1.8, 512.0},
                              {"ml", 1.2, 2.5, 1024.0}};
  spec.serverless.config.keep_alive = 120.0;
  stats::Rng faas_rng(derive_seed(seed, 17));
  spec.serverless.invocations = serverless::bursty_invocations(
      spec.serverless.registry.size(), reduced ? 0.5 : 2.0, 3'600.0, 300.0, 60,
      faas_rng);

  spec.mmog.enabled = true;
  spec.mmog.provisioning = eco::ZoneProvisioning::kAutoscaled;
  spec.mmog.autoscaler = "React";
  spec.mmog.avatars_per_machine = 48;
  spec.mmog.report_interval = 30.0;
  spec.mmog.initial_machines = 1;
  spec.mmog.config.zones = 16;
  spec.mmog.config.crossing_time = 5.0;
  spec.mmog.config.act_mean = 25.0;
  spec.mmog.config.migrate_prob = 0.1;
  spec.mmog.config.session_mean = 2'400.0;
  spec.mmog.config.seed = derive_seed(seed, 7);
  spec.mmog.arrivals = mmog::synthetic_zone_arrivals(
      reduced ? 500 : 4'000, spec.mmog.config.zones, 2'400.0,
      derive_seed(seed, 7));

  spec.dags.enabled = true;
  spec.dags.scheduling = eco::DagScheduling::kSharedFabric;
  spec.dags.policy = "FCFS";
  workflow::WorkloadSpec jobs;
  jobs.cls = workflow::WorkloadClass::kSynthetic;
  jobs.jobs = reduced ? 16 : 64;
  jobs.horizon = 2'400.0;
  jobs.seed = derive_seed(seed, 5);
  spec.dags.workload = workflow::generate(jobs);
  return spec;
}

/// One world call of the pass: a name, its domain-event count, and the
/// layout-invariant rendering of its output.
struct Outcome {
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t messages = 0;
  std::uint64_t actions = 0, migrations = 0;      // mmog
  std::uint64_t finished = 0, announcements = 0;  // p2p
  std::uint64_t eco_events = 0;                   // eco
  std::string text;
  bool ok = true;  // conservation laws
};

Outcome zones_outcome(const mmog::ZoneSimResult& r, std::size_t avatars) {
  Outcome o;
  o.events = o.actions = r.actions;
  o.migrations = r.migrations;
  o.windows = r.windows;
  o.messages = r.messages;
  std::uint64_t zone_sum = 0;
  std::string zones;
  for (auto a : r.zone_actions) zone_sum += a;
  for (auto p : r.final_population) zones += std::to_string(p) + ",";
  o.text = "actions=" + std::to_string(r.actions) +
           " migrations=" + std::to_string(r.migrations) +
           " arrivals=" + std::to_string(r.arrivals) +
           " departures=" + std::to_string(r.departures) +
           " churned=" + std::to_string(r.churned) +
           " residents=" + std::to_string(r.residents) +
           " queued=" + std::to_string(r.queued_logins) +
           " sessions=" + std::to_string(r.session_digest.count()) +
           " session_us=" + std::to_string(r.session_seconds_x1e6) +
           " session_p50=" + exact(r.session_digest.p50()) +
           " session_p99=" + exact(r.session_digest.p99()) +
           " zone_actions=" + digest(std::to_string(zone_sum)) +
           " population=" + digest(zones);
  // Every avatar is resident, departed, churned or crossing at the horizon,
  // and zone counters add up to the world's.
  o.ok = r.residents + r.departures + r.churned + (r.migrations - r.arrivals) ==
             avatars &&
         zone_sum == r.actions;
  return o;
}

Outcome swarm_outcome(const p2p::SwarmNetResult& r, std::size_t peers) {
  Outcome o;
  o.events = peers;
  o.finished = r.finished;
  o.announcements = r.announcements;
  o.windows = r.windows;
  o.messages = r.messages;
  std::string peak;
  for (auto p : r.peak_swarm) peak += std::to_string(p) + ",";
  o.text = "finished=" + std::to_string(r.finished) +
           " aborted=" + std::to_string(r.aborted) +
           " churned=" + std::to_string(r.churned) +
           " announcements=" + std::to_string(r.announcements) +
           " grants=" + std::to_string(r.grants) +
           " leechers=" + std::to_string(r.residual_leechers) +
           " seeds=" + std::to_string(r.residual_seeds) +
           " download_us=" + std::to_string(r.download_seconds_x1e6) +
           " peak=" + digest(peak) +
           " downloads=" + digest(r.download_digest.serialize());
  // Every arrival finished, aborted, churned or is still downloading.
  o.ok = r.finished + r.aborted + r.churned + r.residual_leechers == peers;
  return o;
}

Outcome eco_outcome(const eco::EcosystemResult& r) {
  Outcome o;
  o.eco_events = o.events = r.faas.invocations.size() + r.zones.actions +
                            r.dags.tasks_completed;
  o.windows = r.windows;
  o.messages = r.messages;
  o.text = r.summary();
  o.ok = !o.text.empty();
  return o;
}

struct Inputs {
  std::vector<mmog::ZoneArrival> avatars1m;
  std::vector<p2p::PeerArrival> peers1m;
  std::vector<std::vector<mmog::ZoneArrival>> avatars12k;  // one per sweep seed
  std::vector<eco::EcosystemSpec> ecos;
};

/// The calls of one pass, in order. `run(shards, threads)` performs the
/// call and reduces its output.
struct Call {
  std::string world;  // zones1m | peers1m | zones12k | eco
  std::string op;
  std::function<Outcome(std::size_t, std::size_t)> run;
};

std::vector<Call> make_calls(const Options& o, const Inputs& in) {
  std::vector<Call> calls;
  const std::size_t zones1m = o.reduced ? 32 : 256;
  calls.push_back({"zones1m", "zones1m",
                   [&in, &o, zones1m](std::size_t s, std::size_t t) {
                     auto c =
                         zone_world(zones1m, 600.0, derive_seed(o.seed, 9));
                     c.act_mean = 60.0;
                     c.session_mean = 400.0;
                     c.shard.shards = s;
                     c.shard.threads = t;
                     return zones_outcome(
                         mmog::simulate_zones(c, in.avatars1m),
                         in.avatars1m.size());
                   }});
  calls.push_back({"peers1m", "peers1m",
                   [&in, &o](std::size_t s, std::size_t t) {
                     p2p::SwarmNetConfig c;
                     c.swarms = o.reduced ? 16 : 64;
                     c.content_mb = 20.0;
                     c.epoch = 10.0;
                     c.announce_interval = 60.0;
                     c.horizon = 2'000.0;
                     c.initial_seeds = 4;
                     c.seed_upload_mbps = 40.0;
                     c.seed = derive_seed(o.seed, 9);
                     c.shard.shards = s;
                     c.shard.threads = t;
                     return swarm_outcome(
                         p2p::simulate_swarm_network(c, in.peers1m),
                         in.peers1m.size());
                   }});
  for (std::size_t k = 0; k < in.avatars12k.size(); ++k) {
    calls.push_back({"zones12k", "zones12k." + std::to_string(k),
                     [&in, &o, k](std::size_t s, std::size_t t) {
                       auto c = zone_world(64, 1'200.0,
                                           derive_seed(o.seed, 9 + k));
                       c.shard.shards = s;
                       c.shard.threads = t;
                       return zones_outcome(
                           mmog::simulate_zones(c, in.avatars12k[k]),
                           in.avatars12k[k].size());
                     }});
  }
  for (std::size_t k = 0; k < in.ecos.size(); ++k) {
    calls.push_back({"eco", "eco." + std::to_string(k),
                     [&in, k](std::size_t s, std::size_t t) {
                       eco::EcosystemSpec spec = in.ecos[k];
                       spec.shards = s;
                       spec.threads = t;
                       return eco_outcome(eco::run_ecosystem(spec));
                     }});
  }
  return calls;
}

const char* const kWorlds[] = {"zones1m", "peers1m", "zones12k", "eco"};

struct WorldLedger {
  double s = 0.0;
  double cpu = 0.0;
  double serial_s = 0.0;  // same calls at 1 shard x 1 thread
  std::uint64_t windows = 0;
  std::uint64_t messages = 0;
};

}  // namespace

void run_sharded(Context& ctx) {
  const Options& o = ctx.options;
  // The barrier-bound sweeps together take about a third of a pass.
  const std::size_t sweep12k = o.reduced ? 1 : 32;
  const std::size_t sweep_eco = o.reduced ? 1 : 16;
  Inputs in;
  const double setup_s = timed_setup(o.reduced ? 1 : 5, [&] {
    in = Inputs{};
    const std::size_t n = o.reduced ? 20'000 : 1'000'000;
    in.avatars1m = mmog::synthetic_zone_arrivals(n, o.reduced ? 32 : 256, 300.0,
                                                 derive_seed(o.seed, 9));
    in.peers1m =
        p2p::flashcrowd_net_arrivals(n, o.reduced ? 16 : 64, 2'000.0, 500.0,
                                     0.4, derive_seed(o.seed, 9));
    for (std::size_t k = 0; k < sweep12k; ++k)
      in.avatars12k.push_back(mmog::synthetic_zone_arrivals(
          o.reduced ? 2'000 : 12'000, 64, 400.0, derive_seed(o.seed, 9 + k)));
    for (std::size_t k = 0; k < sweep_eco; ++k)
      in.ecos.push_back(eco_spec(derive_seed(o.seed, 1 + k), o.reduced));
  });
  const auto calls = make_calls(o, in);

  // Ledgers of the last traced pass.
  std::map<std::string, WorldLedger> worlds;
  std::uint64_t actions = 0, migrations = 0, finished = 0, announcements = 0,
                eco_events = 0, events = 0;
  double mmog_s = 0.0, call_s = 0.0;
  std::map<std::string, std::string> layout;  // op -> sharded rendering
  const PassTimes times =
      run_passes(ctx, passes_for(o, 7.5), [&](SpanLog& spans) {
        const bool keep = spans.enabled();
        if (keep) {
          worlds.clear();
          actions = migrations = finished = announcements = eco_events =
              events = 0;
          mmog_s = call_s = 0.0;
        }
        Timed pass(spans, "sharded.pass");
        for (const auto& call : calls) {
          try {
            const double c0 = cpu_now();
            OpTimer t(ctx, spans, call.op);
            const Outcome out = call.run(kShards, o.threads);
            const double dt = t.stop();
            ctx.checks.output(call.op, out.text, out.ok);
            if (!keep) continue;
            auto& w = worlds[call.world];
            w.s += dt;
            w.cpu += cpu_now() - c0;
            w.windows += out.windows;
            w.messages += out.messages;
            call_s += dt;
            events += out.events;
            actions += out.actions;
            migrations += out.migrations;
            finished += out.finished;
            announcements += out.announcements;
            eco_events += out.eco_events;
            if (out.actions > 0) mmog_s += dt;  // zone worlds
            layout[call.op] = out.text;
          } catch (const std::exception& e) {
            ctx.checks.threw(call.op, e);
          }
        }
      });
  if (!o.trace) return set_timings(ctx, setup_s);

  // The same calls at 1 shard x 1 thread: the speedup baseline, and the
  // layout-invariance check (every summary must equal its 1-LP run).
  for (const auto& call : calls) {
    try {
      Timed t(ctx.spans, "sharded." + call.world + ".1lp",
              &worlds[call.world].serial_s);
      const Outcome out = call.run(1, 1);
      t.stop();
      ctx.checks.output(call.op, out.text,
                        out.ok && out.text == layout[call.op]);
    } catch (const std::exception& e) {
      ctx.checks.threw(call.op, e);
    }
  }
  auto& m = ctx.layers;
  m.set("bench.trace_overhead", times.trace_overhead(), "1");
  m.set("sharded.events_per_s",
        call_s > 0 ? static_cast<double>(events) / call_s : 0.0, "1/s");
  for (const char* name : kWorlds) {
    const auto& w = worlds[name];
    const std::string p = std::string("sharded.") + name;
    m.set(p + ".s", w.s, "s");
    m.set(p + ".windows", static_cast<double>(w.windows), "count");
    m.set(p + ".messages", static_cast<double>(w.messages), "count");
    m.set(p + ".us_per_window",
          w.windows ? w.s * 1e6 / static_cast<double>(w.windows) : 0.0, "us");
    m.set(p + ".busy_frac",
          w.s > 0 ? w.cpu / (w.s * static_cast<double>(o.threads)) : 0.0, "1");
    m.set(p + ".speedup_1lp", w.s > 0 ? w.serial_s / w.s : 0.0, "1");
  }
  m.set("mmog.actions", static_cast<double>(actions), "count");
  m.set("mmog.migrations", static_cast<double>(migrations), "count");
  m.set("mmog.ns_per_action",
        actions ? mmog_s * 1e9 / static_cast<double>(actions) : 0.0, "ns");
  m.set("p2p.finished", static_cast<double>(finished), "count");
  m.set("p2p.announcements", static_cast<double>(announcements), "count");
  m.set("eco.domain_events", static_cast<double>(eco_events), "count");
}

}  // namespace perfbench
