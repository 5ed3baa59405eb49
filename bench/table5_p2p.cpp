// Table 5 / Section 6.1: the P2P studies, reproduced in simulation.
//  [61] aliased media fragments swarms and slows downloads;
//  [62] upload/download asymmetry makes swarms upload-bound;
//  [63] BTWorld-scale ecosystem observation: giant swarms, spam trackers;
//  [65] sampling bias of measurement instruments;
//  [66] flashcrowd identification and the negative phenomena during them;
//  [68] 2fast collaborative downloads exploit idle asymmetric capacity.

#include <cstdio>

#include "atlarge/p2p/ecosystem.hpp"
#include "atlarge/p2p/flashcrowd.hpp"
#include "atlarge/p2p/monitor.hpp"
#include "atlarge/p2p/swarm.hpp"
#include "atlarge/p2p/swarmnet.hpp"
#include "atlarge/p2p/twofast.hpp"
#include "atlarge/workflow/vicissitude.hpp"
#include "bench_util.hpp"
#include "workload_mode.hpp"

using namespace atlarge;

namespace {

p2p::SwarmConfig base_swarm() {
  p2p::SwarmConfig config;
  config.content_mb = 200.0;
  config.seed_upload_mbps = 8.0;
  config.peer_upload_mbps = 1.0;   // ADSL: 8:1 down/up
  config.peer_download_mbps = 8.0;
  config.epoch = 10.0;
  return config;
}

void study_asymmetry() {
  bench::header("[62] Upload/download asymmetry (ADSL)");
  std::printf("%-18s %14s %18s\n", "up:down ratio", "mean DL time",
              "mean rate vs pipe");
  for (double up : {8.0, 4.0, 2.0, 1.0}) {
    auto config = base_swarm();
    config.peer_upload_mbps = up;
    config.seed = 7;
    stats::Rng rng(7);
    const auto arrivals = p2p::poisson_arrivals(0.05, 20'000.0, rng);
    const auto result = p2p::simulate_swarm(config, arrivals, 80'000.0);
    double rate_sum = 0.0;
    std::size_t n = 0;
    for (const auto& s : result.series) {
      if (s.leechers > 0) {
        rate_sum += s.per_leecher_mbps;
        ++n;
      }
    }
    std::printf("1:%-17.0f %12.0f s %16.0f%%\n", 8.0 / up,
                result.mean_download_time,
                100.0 * (rate_sum / n) / config.peer_download_mbps);
  }
  std::printf("=> asymmetric swarms are upload-bound: download pipes idle.\n");
}

void study_flashcrowd() {
  bench::header("[66] Flashcrowd identification and impact");
  stats::Rng rng(13);
  const auto arrivals =
      p2p::flashcrowd_arrivals(0.01, 60'000.0, 600, 20'000.0, 6.0, rng);
  auto config = base_swarm();
  const auto result = p2p::simulate_swarm(config, arrivals, 60'000.0);
  const auto episodes =
      p2p::detect_flashcrowds(result.series, p2p::FlashcrowdConfig{});
  std::printf("injected surge at t=20000s; detected episodes: %zu\n",
              episodes.size());
  for (const auto& ep : episodes) {
    std::printf("  [%8.0f, %8.0f]s peak=%.0f baseline=%.0f magnitude=%.1fx\n",
                ep.start, ep.end, ep.peak_leechers, ep.baseline_leechers,
                ep.magnitude());
  }
  const auto [inside, outside] =
      p2p::rate_inside_outside(result.series, episodes);
  std::printf("per-leecher rate: %.2f Mbps inside vs %.2f Mbps outside "
              "episodes => flashcrowds depress service.\n",
              inside, outside);
}

void study_ecosystem_and_bias() {
  bench::header("[63]+[65] Global ecosystem observation and sampling bias");
  p2p::EcosystemConfig config;
  config.titles = 40;
  config.total_peers = 4'000.0;
  config.horizon = 30'000.0;
  config.trackers = 8;
  config.spam_tracker_fraction = 0.3;
  config.spam_inflation = 4.0;
  config.swarm = base_swarm();
  config.swarm.content_mb = 100.0;
  const auto eco = p2p::simulate_ecosystem(config);
  std::printf("titles=%zu swarms=%zu giant-swarm peak=%u peers\n",
              eco.catalog.size(), eco.swarms.size(),
              eco.giant_swarm_peak());

  std::printf("\n%-34s %12s %14s\n", "monitor configuration", "mean bias",
              "mean |bias|");
  struct Case {
    const char* label;
    p2p::MonitorConfig monitor;
  };
  p2p::MonitorConfig naive;
  naive.tracker_coverage = 1.0;
  naive.deduplicate = false;
  p2p::MonitorConfig dedup;
  dedup.tracker_coverage = 1.0;
  dedup.deduplicate = true;
  p2p::MonitorConfig partial;
  partial.tracker_coverage = 0.3;
  partial.deduplicate = true;
  for (const auto& c : {Case{"full coverage, no dedup (naive)", naive},
                        Case{"full coverage, dedup", dedup},
                        Case{"30% coverage, dedup", partial}}) {
    const auto report = p2p::scrape(eco, config, c.monitor);
    std::printf("%-34s %+11.1f%% %13.1f%%\n", c.label,
                100.0 * report.mean_bias, 100.0 * report.mean_abs_bias);
  }
  std::printf("=> duplication and spam trackers bias naive instruments; "
              "dedup removes duplication but not spam.\n");
}

void study_aliased_media() {
  bench::header("[61] Aliased media fragments swarms");
  p2p::EcosystemConfig config;
  config.titles = 40;
  config.total_peers = 4'000.0;
  config.horizon = 30'000.0;
  config.aliased_fraction = 0.5;
  config.alias_copies = 4;
  config.swarm = base_swarm();
  config.swarm.content_mb = 100.0;
  config.seed = 5;
  const auto eco = p2p::simulate_ecosystem(config);
  const auto [aliased, plain] = eco.aliased_vs_plain_download_time();
  std::printf("mean download time: aliased titles %.0f s vs non-aliased "
              "%.0f s (%.2fx)\n",
              aliased, plain, plain > 0 ? aliased / plain : 0.0);
  std::printf("=> splitting a title's swarm across aliases starves each "
              "alias of seeds.\n");
}

void study_two_fast() {
  bench::header("[68] 2fast collaborative downloads");
  stats::Rng rng(21);
  auto config = base_swarm();
  const auto arrivals = p2p::poisson_arrivals(0.08, 40'000.0, rng);
  const auto swarm = p2p::simulate_swarm(config, arrivals, 60'000.0);
  std::printf("%-12s %18s %10s\n", "group size", "collector DL time",
              "speedup");
  for (std::size_t k : {1, 2, 4, 8}) {
    const auto outcome =
        p2p::evaluate_two_fast(config, swarm.series, 5'000.0, k);
    std::printf("%-12zu %16.0f s %9.2fx\n", k,
                outcome.collector_download_time, outcome.speedup);
  }
  std::printf("=> collaboration converts idle upload into download speed, "
              "saturating at the download pipe.\n");
}

void study_vicissitude() {
  // Discovered while scaling the BTWorld analytics workflow [38]
  // (Section 2.5): near-critical multi-stage pipelines with fluctuating
  // stage capacities show bottlenecks "seemingly at random in various
  // parts of the system" — unlike the classic static bottleneck.
  bench::header("[38] Vicissitude in the BTWorld analytics pipeline");
  std::printf("%-28s %10s %10s %10s %6s\n", "pipeline regime", "saturated",
              "distinct", "rotation", "vic?");
  struct Case {
    const char* label;
    double capacity;
    double noise;
  };
  for (const auto& c :
       {Case{"static bottleneck (90, 0)", 90.0, 0.0},
        Case{"near-critical (115, 0.25)", 115.0, 0.25},
        Case{"headroom + noise (140, .35)", 140.0, 0.35}}) {
    workflow::PipelineConfig config;
    config.stages = 5;
    config.horizon = 20'000.0;
    config.input_rate = 100.0;
    config.stage_capacity = c.capacity;
    config.capacity_noise = c.noise;
    config.burst_factor = c.noise == 0.0 ? 1.0 : 3.0;
    config.burst_share = c.noise == 0.0 ? 0.0 : 0.2;
    config.seed = 3;
    const auto samples = workflow::simulate_pipeline(config);
    const auto report = workflow::analyze_vicissitude(samples);
    std::printf("%-28s %10zu %10zu %10.2f %6s\n", c.label,
                report.saturated_windows, report.distinct_bottlenecks,
                report.rotation_rate, report.vicissitude ? "YES" : "no");
  }
  std::printf("=> vicissitude needs both near-critical load and capacity "
              "fluctuation; a deterministic under-provisioned stage gives "
              "the classic static bottleneck instead.\n");
}

/// The BTWorld ecosystem as a sharded parallel simulation: many fluid
/// swarms plus a tracker, announce-interval lookahead, byte-identical on
/// every shards x threads layout (D-P2P-Sim+, PAPERS.md).
void study_sharded_network(std::size_t shards, std::size_t threads) {
  bench::header("Sharded swarm network (conservative parallel DES)");
  p2p::SwarmNetConfig config;
  config.swarms = 16;
  config.content_mb = 50.0;
  config.horizon = 12'000.0;
  config.seed = 9;
  config.shard.shards = shards;
  config.shard.threads = threads;
  const auto arrivals = p2p::flashcrowd_net_arrivals(
      8'000, config.swarms, config.horizon, 3'000.0, 0.5, config.seed);
  const auto result = p2p::simulate_swarm_network(config, arrivals);
  std::printf("swarms=%zu peers=%zu shards=%zu threads=%zu lookahead=%.0fs "
              "(announce interval)\n",
              config.swarms, arrivals.size(), shards, threads,
              config.announce_interval);
  std::printf("finished=%llu aborted=%llu announcements=%llu grants=%llu "
              "residual=%llu\n",
              static_cast<unsigned long long>(result.finished),
              static_cast<unsigned long long>(result.aborted),
              static_cast<unsigned long long>(result.announcements),
              static_cast<unsigned long long>(result.grants),
              static_cast<unsigned long long>(result.residual_leechers));
  std::printf("mean download time %.0f s; cross-LP messages=%llu\n",
              result.mean_download_time(),
              static_cast<unsigned long long>(result.messages));
  std::printf("=> results are byte-identical on every shards x threads "
              "layout; speedup tracks physical cores (BENCH_shard.json).\n");
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::parse_flags(
      argc, argv, {bench::kReplay, {0, bench::kShards | bench::kThreads}});
  if (bench::workload_mode(argv[0], opts, "video-flashcrowd")) return 0;
  bench::header("Table 5 / Section 6.1: P2P studies");
  study_asymmetry();
  study_flashcrowd();
  study_ecosystem_and_bias();
  study_aliased_media();
  study_two_fast();
  study_vicissitude();
  study_sharded_network(opts.shards.value_or(1), opts.threads.value_or(1));
  return 0;
}
