// Table 6 / Section 6.2: the MMOG studies, reproduced in simulation.
//  [71]-[73] population dynamics across genres (diurnal, bursty, flat);
//  [71],[87] dynamic datacenter provisioning vs static peak sizing;
//  [76],[81] RTSenv scalability and Area-of-Simulation;
//  [74] implicit social networks; [77] toxicity detection.

#include <cstdio>
#include <string>
#include <vector>

#include "atlarge/mmog/analytics.hpp"
#include "atlarge/mmog/interest.hpp"
#include "atlarge/mmog/provisioning.hpp"
#include "atlarge/mmog/workload.hpp"
#include "atlarge/mmog/zonesim.hpp"
#include "atlarge/trace/catalog.hpp"
#include "workload_mode.hpp"

using namespace atlarge;

namespace {

/// Layout-invariant summary of a zone-ecosystem run: one key=value per
/// line, so `diff` gates sharded vs unsharded replays directly. The
/// layout-dependent diagnostics (windows) go to stderr.
void print_zone_summary(const mmog::ZoneSimResult& result) {
  std::printf("actions=%llu\n",
              static_cast<unsigned long long>(result.actions));
  std::printf("migrations=%llu\n",
              static_cast<unsigned long long>(result.migrations));
  std::printf("arrivals=%llu\n",
              static_cast<unsigned long long>(result.arrivals));
  std::printf("departures=%llu\n",
              static_cast<unsigned long long>(result.departures));
  std::printf("churned=%llu\n",
              static_cast<unsigned long long>(result.churned));
  std::printf("residents=%llu\n",
              static_cast<unsigned long long>(result.residents));
  std::printf("messages=%llu\n",
              static_cast<unsigned long long>(result.messages));
  std::printf("session_seconds_x1e6=%llu\n",
              static_cast<unsigned long long>(result.session_seconds_x1e6));
  std::fprintf(stderr, "windows=%llu (layout-dependent diagnostic)\n",
               static_cast<unsigned long long>(result.windows));
}

/// `--sharded-replay=<scenario>`: adapts a catalog scenario's session
/// starts to zone arrivals and replays them through the sharded zone
/// ecosystem. The summary on stdout is byte-identical across
/// --shards/--threads layouts — the shard-smoke CI job diffs an
/// 8-shard run against the unsharded golden run.
bool sharded_replay_mode(const char* program,
                         const bench::HarnessOptions& opts) {
  const std::string& name = opts.sharded_replay;
  if (name.empty()) return false;
  const auto& scenario = bench::find_scenario(program, name);

  mmog::ZoneSimConfig config;
  config.zones = 16;
  config.horizon = 4'000.0;
  config.seed = 9;
  config.shard.shards = opts.shards.value_or(1);
  config.shard.threads = opts.threads.value_or(1);

  const auto events = trace::catalog::events(
      scenario, opts.seed.value_or(9),
      static_cast<std::size_t>(opts.max_events.value_or(8'000)));
  std::vector<mmog::ZoneArrival> arrivals;
  for (const auto& e : events) {
    if (e.kind != static_cast<std::int64_t>(trace::EventKind::kSessionStart))
      continue;
    if (e.t_seconds() >= config.horizon) continue;
    mmog::ZoneArrival a;
    a.time = e.t_seconds();
    a.avatar = static_cast<std::uint64_t>(e.entity);
    a.zone = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(e.region) % config.zones);
    arrivals.push_back(a);
  }

  std::printf("scenario=%s\n", name.c_str());
  std::printf("zone_arrivals=%zu\n", arrivals.size());
  print_zone_summary(mmog::simulate_zones(config, arrivals));
  std::fprintf(stderr, "shards=%llu threads=%llu\n",
               static_cast<unsigned long long>(config.shard.shards),
               static_cast<unsigned long long>(config.shard.threads));
  return true;
}

/// [76],[81] at ecosystem scale: the zone-partitioned world as a sharded
/// parallel simulation, same results on every layout.
void study_sharded_world(std::size_t shards, std::size_t threads) {
  bench::header("Sharded zone ecosystem (conservative parallel DES)");
  mmog::ZoneSimConfig config;
  config.zones = 32;
  config.horizon = 2'000.0;
  config.seed = 9;
  config.shard.shards = shards;
  config.shard.threads = threads;
  const auto arrivals =
      mmog::synthetic_zone_arrivals(20'000, config.zones, 600.0, config.seed);
  std::printf("zones=%zu avatars=%zu shards=%zu threads=%zu "
              "lookahead=%.0fs (zone crossing time)\n",
              config.zones, arrivals.size(), shards, threads,
              config.crossing_time);
  print_zone_summary(mmog::simulate_zones(config, arrivals));
  std::printf("=> results are byte-identical on every shards x threads "
              "layout; speedup tracks physical cores (BENCH_shard.json).\n");
}

void study_dynamics() {
  bench::header("[71]-[73] Population dynamics per genre");
  std::printf("%-14s %12s %12s %14s\n", "genre", "mean players",
              "peak players", "peak-to-mean");
  for (auto genre : {mmog::Genre::kMmorpg, mmog::Genre::kMoba,
                     mmog::Genre::kOnlineSocial}) {
    mmog::PopulationConfig config;
    config.genre = genre;
    config.days = 14.0;
    config.update_times = {7.0 * 86'400.0};  // one content update
    const auto series = mmog::generate_population(config);
    std::printf("%-14s %12.0f %12.0f %13.2fx\n",
                mmog::to_string(genre).c_str(), series.mean(), series.peak(),
                series.peak_to_mean());
  }
  std::printf("=> strong short-term dynamics; static sizing must pay the "
              "peak-to-mean ratio.\n");
}

void study_provisioning() {
  bench::header("[71],[87] Dynamic vs static resource provisioning");
  mmog::PopulationConfig pop;
  pop.days = 14.0;
  pop.update_times = {7.0 * 86'400.0};
  const auto series = mmog::generate_population(pop);

  std::printf("%-16s %12s %12s %12s %10s\n", "policy", "avg servers",
              "server-hrs", "over-prov", "SLA-viol");
  mmog::ProvisioningConfig config;
  const auto fixed = mmog::provision_static(series, config);
  std::printf("%-16s %12.1f %12.0f %12.1f %9.1f%%\n", "static-peak",
              fixed.avg_servers, fixed.server_hours, fixed.avg_overprovision,
              100.0 * fixed.sla_violation_share);
  for (auto p : {mmog::Predictor::kLastValue, mmog::Predictor::kMovingAverage,
                 mmog::Predictor::kExponential,
                 mmog::Predictor::kLinearTrend}) {
    config.predictor = p;
    const auto r = mmog::provision_dynamic(series, config);
    std::printf("%-16s %12.1f %12.0f %12.1f %9.1f%%\n", r.predictor.c_str(),
                r.avg_servers, r.server_hours, r.avg_overprovision,
                100.0 * r.sla_violation_share);
  }
  std::printf("=> dynamic provisioning cuts server-hours vs static peak "
              "sizing at bounded SLA cost.\n");
}

void study_scalability() {
  bench::header("[76],[81] Interest management scalability (RTSenv-style)");
  mmog::WorldConfig world;
  world.hotspots = 4;
  world.hotspot_fraction = 0.75;
  world.seed = 3;
  mmog::ImConfig config;
  const std::vector<std::size_t> candidates = {
      100, 150, 250, 500, 1'000, 2'000, 4'000, 8'000, 16'000, 32'000};

  std::printf("%-20s %22s\n", "technique", "max entities @30Hz");
  for (auto technique : {mmog::ImTechnique::kZoning,
                         mmog::ImTechnique::kFullReplication,
                         mmog::ImTechnique::kAreaOfSimulation}) {
    const auto max = mmog::max_sustainable_entities(technique, world, config,
                                                    candidates);
    std::printf("%-20s %22zu\n", mmog::to_string(technique).c_str(), max);
  }

  world.entities = 4'000;
  const auto w = mmog::generate_world(world);
  std::printf("\nper-tick detail at 4000 entities:\n%-20s %12s %12s %10s\n",
              "technique", "busiest (ms)", "total (ms)", "imbalance");
  for (auto technique : {mmog::ImTechnique::kZoning,
                         mmog::ImTechnique::kFullReplication,
                         mmog::ImTechnique::kAreaOfSimulation}) {
    const auto report =
        mmog::evaluate_interest_management(technique, w, config);
    std::printf("%-20s %12.2f %12.2f %9.2fx\n", report.technique.c_str(),
                1e3 * report.busiest_server_cost, 1e3 * report.total_cost,
                report.imbalance);
  }
  std::printf("=> scalability depends on how entities cluster at points of "
              "interest; AoS scales furthest.\n");
}

void study_analytics() {
  bench::header("[74],[77] Gaming analytics: social networks, toxicity");
  mmog::MatchLogConfig config;
  config.players = 400;
  config.matches = 4'000;
  config.toxic_fraction = 0.08;
  const auto log = mmog::generate_match_log(config);
  const auto graph =
      mmog::SocialGraph::from_matches(config.players, log.matches);
  std::printf("implicit social network: %zu players, %zu edges, clustering "
              "coefficient %.3f\n",
              graph.players(), graph.edges(),
              graph.clustering_coefficient());
  std::printf("latent-community cohesion of co-play edges: %.1f%%\n",
              100.0 * graph.community_cohesion(log.community));
  const double random_gap = mmog::matchmaking_skill_gap(log, false, 5'000, 1);
  const double skill_gap = mmog::matchmaking_skill_gap(log, true, 5'000, 1);
  std::printf("matchmaking mean skill gap: random %.2f vs skill-based %.2f "
              "(%.1fx fairer)\n",
              random_gap, skill_gap, random_gap / skill_gap);
  std::printf("\ntoxicity detection (threshold sweep):\n%-10s %10s %10s %8s\n",
              "threshold", "precision", "recall", "F1");
  for (double threshold : {0.30, 0.40, 0.50}) {
    const auto out = mmog::detect_toxicity(log, threshold, 40, 2);
    std::printf("%-10.2f %9.1f%% %9.1f%% %8.2f\n", threshold,
                100.0 * out.precision, 100.0 * out.recall, out.f1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::parse_flags(
      argc, argv,
      {{bench::kShardedReplay, bench::kShards | bench::kThreads |
                                   bench::kSeed | bench::kMaxEvents},
       {0, bench::kShards | bench::kThreads}});
  if (sharded_replay_mode(argv[0], opts)) return 0;
  bench::header("Table 6 / Section 6.2: MMOG studies");
  study_dynamics();
  study_provisioning();
  study_scalability();
  study_analytics();
  study_sharded_world(opts.shards.value_or(1), opts.threads.value_or(1));
  return 0;
}
