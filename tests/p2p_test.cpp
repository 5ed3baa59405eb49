// Tests for the P2P swarm/ecosystem simulators, monitors, flashcrowd
// detection, and 2fast (paper Section 6.1).

#include <string_view>

#include <gtest/gtest.h>

#include "atlarge/obs/observability.hpp"
#include "atlarge/fault/fault.hpp"
#include "atlarge/p2p/ecosystem.hpp"
#include "atlarge/p2p/flashcrowd.hpp"
#include "atlarge/p2p/monitor.hpp"
#include "atlarge/p2p/swarm.hpp"
#include "atlarge/p2p/twofast.hpp"

namespace p2p = atlarge::p2p;
using atlarge::stats::Rng;

namespace {

p2p::SwarmConfig small_swarm() {
  p2p::SwarmConfig config;
  config.content_mb = 100.0;
  config.seed_upload_mbps = 8.0;
  config.peer_upload_mbps = 1.0;
  config.peer_download_mbps = 8.0;
  config.epoch = 5.0;
  config.seed = 1;
  return config;
}

}  // namespace

TEST(Swarm, PeersEventuallyFinish) {
  Rng rng(1);
  const auto arrivals = p2p::poisson_arrivals(0.05, 2'000.0, rng);
  const auto result = p2p::simulate_swarm(small_swarm(), arrivals, 100'000.0);
  EXPECT_EQ(result.peers.size(), arrivals.size());
  EXPECT_GT(result.finished, arrivals.size() * 9 / 10);
  EXPECT_GT(result.mean_download_time, 0.0);
}

TEST(Swarm, CompletionAfterArrival) {
  Rng rng(2);
  const auto arrivals = p2p::poisson_arrivals(0.05, 2'000.0, rng);
  const auto result = p2p::simulate_swarm(small_swarm(), arrivals, 50'000.0);
  for (const auto& p : result.peers) {
    if (p.finished) {
      EXPECT_GT(p.completion, p.arrival);
    }
  }
}

TEST(Swarm, MoreSeedCapacityIsFaster) {
  Rng rng(3);
  const auto arrivals = p2p::poisson_arrivals(0.05, 2'000.0, rng);
  auto slow = small_swarm();
  slow.seed_upload_mbps = 2.0;
  auto fast = small_swarm();
  fast.seed_upload_mbps = 32.0;
  const auto r_slow = p2p::simulate_swarm(slow, arrivals, 100'000.0);
  const auto r_fast = p2p::simulate_swarm(fast, arrivals, 100'000.0);
  EXPECT_LT(r_fast.mean_download_time, r_slow.mean_download_time);
}

TEST(Swarm, AsymmetryMakesSwarmUploadBound) {
  // With ADSL asymmetry the per-leecher rate stays far below the download
  // capacity (the study [62] finding).
  Rng rng(4);
  const auto arrivals = p2p::poisson_arrivals(0.2, 3'000.0, rng);
  auto config = small_swarm();
  config.peer_upload_mbps = 1.0;
  config.peer_download_mbps = 8.0;
  const auto result = p2p::simulate_swarm(config, arrivals, 50'000.0);
  double busy_rate_sum = 0.0;
  std::size_t busy_epochs = 0;
  for (const auto& s : result.series) {
    if (s.leechers >= 5) {
      busy_rate_sum += s.per_leecher_mbps;
      ++busy_epochs;
    }
  }
  ASSERT_GT(busy_epochs, 0u);
  EXPECT_LT(busy_rate_sum / static_cast<double>(busy_epochs),
            config.peer_download_mbps * 0.6);
}

TEST(Swarm, SymmetricPeersSaturateDownload) {
  Rng rng(4);
  std::vector<double> arrivals = {0.0, 1.0, 2.0};
  auto config = small_swarm();
  config.peer_upload_mbps = 8.0;  // symmetric
  config.seed_upload_mbps = 24.0;
  const auto result = p2p::simulate_swarm(config, arrivals, 50'000.0);
  EXPECT_EQ(result.finished, 3u);
}

TEST(Swarm, AbortRateProducesAborts) {
  Rng rng(5);
  const auto arrivals = p2p::poisson_arrivals(0.1, 3'000.0, rng);
  auto config = small_swarm();
  config.abort_rate = 0.002;
  const auto result = p2p::simulate_swarm(config, arrivals, 50'000.0);
  EXPECT_GT(result.aborted, 0u);
  EXPECT_EQ(result.finished + result.aborted, result.peers.size());
}

TEST(Swarm, DeterministicForSeed) {
  Rng rng(6);
  const auto arrivals = p2p::poisson_arrivals(0.05, 2'000.0, rng);
  const auto a = p2p::simulate_swarm(small_swarm(), arrivals, 50'000.0);
  const auto b = p2p::simulate_swarm(small_swarm(), arrivals, 50'000.0);
  EXPECT_DOUBLE_EQ(a.mean_download_time, b.mean_download_time);
  EXPECT_EQ(a.finished, b.finished);
}

TEST(Swarm, FlashcrowdArrivalsSorted) {
  Rng rng(7);
  const auto arrivals =
      p2p::flashcrowd_arrivals(0.01, 20'000.0, 300, 5'000.0, 10.0, rng);
  for (std::size_t i = 1; i < arrivals.size(); ++i)
    EXPECT_GE(arrivals[i], arrivals[i - 1]);
  EXPECT_GT(arrivals.size(), 200u);
}

// ------------------------------------------------------------- flashcrowd --

TEST(Flashcrowd, DetectsInjectedSurge) {
  Rng rng(8);
  const auto arrivals =
      p2p::flashcrowd_arrivals(0.01, 40'000.0, 500, 10'000.0, 5.0, rng);
  auto config = small_swarm();
  config.content_mb = 200.0;
  const auto result = p2p::simulate_swarm(config, arrivals, 40'000.0);
  const auto episodes =
      p2p::detect_flashcrowds(result.series, p2p::FlashcrowdConfig{});
  ASSERT_FALSE(episodes.empty());
  // The detected episode covers the injection time.
  bool covers = false;
  for (const auto& ep : episodes) {
    if (ep.start <= 13'000.0 && ep.end >= 10'500.0) covers = true;
  }
  EXPECT_TRUE(covers);
  EXPECT_GT(episodes.front().magnitude(), 2.0);
}

TEST(Flashcrowd, QuietSwarmHasNoEpisodes) {
  Rng rng(9);
  const auto arrivals = p2p::poisson_arrivals(0.01, 40'000.0, rng);
  const auto result = p2p::simulate_swarm(small_swarm(), arrivals, 40'000.0);
  const auto episodes =
      p2p::detect_flashcrowds(result.series, p2p::FlashcrowdConfig{});
  EXPECT_TRUE(episodes.empty());
}

TEST(Flashcrowd, RatesSagInsideEpisode) {
  // The negative phenomenon of [66]: per-peer rates drop during the
  // flashcrowd.
  Rng rng(10);
  const auto arrivals =
      p2p::flashcrowd_arrivals(0.02, 40'000.0, 800, 10'000.0, 4.0, rng);
  auto config = small_swarm();
  config.content_mb = 300.0;
  const auto result = p2p::simulate_swarm(config, arrivals, 40'000.0);
  const auto episodes =
      p2p::detect_flashcrowds(result.series, p2p::FlashcrowdConfig{});
  ASSERT_FALSE(episodes.empty());
  const auto [inside, outside] =
      p2p::rate_inside_outside(result.series, episodes);
  EXPECT_LT(inside, outside);
}

TEST(Flashcrowd, ShortBlipsFiltered) {
  std::vector<p2p::SwarmSample> series;
  for (int i = 0; i < 100; ++i)
    series.push_back({static_cast<double>(i), 1,
                      static_cast<std::uint32_t>(i == 50 ? 500 : 5), 1.0});
  p2p::FlashcrowdConfig config;
  config.min_duration = 3;
  EXPECT_TRUE(p2p::detect_flashcrowds(series, config).empty());
}

// ---------------------------------------------------------------- twofast --

TEST(TwoFast, GroupOfOneEqualsSolo) {
  Rng rng(11);
  const auto arrivals = p2p::poisson_arrivals(0.05, 5'000.0, rng);
  const auto config = small_swarm();
  const auto result = p2p::simulate_swarm(config, arrivals, 60'000.0);
  const auto outcome =
      p2p::evaluate_two_fast(config, result.series, 1'000.0, 1);
  EXPECT_DOUBLE_EQ(outcome.speedup, 1.0);
}

TEST(TwoFast, CollaborationSpeedsUpAsymmetricDownloads) {
  Rng rng(12);
  const auto arrivals = p2p::poisson_arrivals(0.1, 10'000.0, rng);
  const auto config = small_swarm();  // asymmetric: up 1, down 8
  const auto result = p2p::simulate_swarm(config, arrivals, 60'000.0);
  const auto outcome =
      p2p::evaluate_two_fast(config, result.series, 1'000.0, 4);
  EXPECT_GT(outcome.speedup, 1.5);
  EXPECT_LT(outcome.collector_download_time, outcome.solo_download_time);
}

TEST(TwoFast, SpeedupCappedByDownloadPipe) {
  Rng rng(13);
  const auto arrivals = p2p::poisson_arrivals(0.1, 10'000.0, rng);
  const auto config = small_swarm();
  const auto result = p2p::simulate_swarm(config, arrivals, 60'000.0);
  const auto big =
      p2p::evaluate_two_fast(config, result.series, 1'000.0, 1'000);
  // No matter the group size, the collector can't beat its pipe: speedup
  // bounded by download/fair-share ratio.
  EXPECT_LE(big.speedup,
            config.peer_download_mbps / 0.1);  // generous bound
  EXPECT_GT(big.speedup, 1.0);
}

// -------------------------------------------------------------- ecosystem --

TEST(Ecosystem, BuildsCatalogAndSwarms) {
  p2p::EcosystemConfig config;
  config.titles = 12;
  config.total_peers = 600.0;
  config.horizon = 20'000.0;
  config.swarm = small_swarm();
  const auto eco = p2p::simulate_ecosystem(config);
  EXPECT_EQ(eco.catalog.size(), 12u);
  EXPECT_GE(eco.swarms.size(), 12u);  // aliased titles add swarms
  for (const auto& s : eco.swarms) {
    EXPECT_FALSE(s.trackers.empty());
    EXPECT_EQ(s.trackers.front(), 0u);  // anchored on the honest tracker
  }
}

TEST(Ecosystem, ZipfPopularityHeadHeavy) {
  p2p::EcosystemConfig config;
  config.titles = 20;
  config.total_peers = 1'000.0;
  config.swarm = small_swarm();
  const auto eco = p2p::simulate_ecosystem(config);
  EXPECT_GT(eco.catalog[0].popularity, eco.catalog[10].popularity);
}

TEST(Ecosystem, TruePeersNonNegative) {
  p2p::EcosystemConfig config;
  config.titles = 8;
  config.total_peers = 400.0;
  config.horizon = 10'000.0;
  config.swarm = small_swarm();
  const auto eco = p2p::simulate_ecosystem(config);
  for (double t = 0.0; t < config.horizon; t += 1'000.0)
    EXPECT_GE(eco.true_peers_at(t), 0.0);
  EXPECT_GT(eco.giant_swarm_peak(), 0u);
}

// ---------------------------------------------------------------- monitor --

namespace {

p2p::EcosystemConfig monitored_config() {
  p2p::EcosystemConfig config;
  config.titles = 15;
  config.total_peers = 1'500.0;
  config.horizon = 20'000.0;
  config.trackers = 6;
  config.spam_tracker_fraction = 0.5;
  config.spam_inflation = 3.0;
  config.swarm = small_swarm();
  config.seed = 3;
  return config;
}

}  // namespace

TEST(Monitor, FullCoverageDedupNoSpamIsUnbiased) {
  auto config = monitored_config();
  config.spam_tracker_fraction = 0.0;
  const auto eco = p2p::simulate_ecosystem(config);
  p2p::MonitorConfig monitor;
  monitor.tracker_coverage = 1.0;
  monitor.deduplicate = true;
  const auto report = p2p::scrape(eco, config, monitor);
  EXPECT_NEAR(report.mean_abs_bias, 0.0, 1e-9);
}

TEST(Monitor, DuplicationInflatesWithoutDedup) {
  auto config = monitored_config();
  config.spam_tracker_fraction = 0.0;
  const auto eco = p2p::simulate_ecosystem(config);
  p2p::MonitorConfig naive;
  naive.tracker_coverage = 1.0;
  naive.deduplicate = false;
  const auto report = p2p::scrape(eco, config, naive);
  EXPECT_GT(report.mean_bias, 0.0);  // over-counts multi-tracker swarms
}

TEST(Monitor, SpamTrackersInflateEvenWithDedup) {
  const auto config = monitored_config();
  const auto eco = p2p::simulate_ecosystem(config);
  p2p::MonitorConfig monitor;
  monitor.tracker_coverage = 1.0;
  monitor.deduplicate = true;
  const auto report = p2p::scrape(eco, config, monitor);
  EXPECT_GT(report.mean_bias, 0.0);
}

TEST(Monitor, LowCoverageLosesNothingAnchoredOnTracker0) {
  // All swarms announce on tracker 0, so even minimal coverage sees every
  // swarm at least once (the design of BTWorld's anchor scraping).
  auto config = monitored_config();
  config.spam_tracker_fraction = 0.0;
  const auto eco = p2p::simulate_ecosystem(config);
  p2p::MonitorConfig monitor;
  monitor.tracker_coverage = 0.0;
  monitor.deduplicate = true;
  const auto report = p2p::scrape(eco, config, monitor);
  EXPECT_EQ(report.scraped_trackers.size(), 1u);
  EXPECT_NEAR(report.mean_abs_bias, 0.0, 1e-9);
}

TEST(Monitor, SamplesCarryTruth) {
  const auto config = monitored_config();
  const auto eco = p2p::simulate_ecosystem(config);
  p2p::MonitorConfig monitor;
  const auto report = p2p::scrape(eco, config, monitor);
  ASSERT_FALSE(report.samples.empty());
  for (const auto& s : report.samples) {
    EXPECT_GE(s.observed_peers, 0.0);
    EXPECT_GE(s.true_peers, 0.0);
  }
}

TEST(Observability, SwarmEmitsCensusAndDownloadTelemetry) {
  atlarge::obs::Observability plane;
  auto config = small_swarm();
  config.abort_rate = 1e-4;
  config.obs = &plane;
  Rng rng(17);
  const auto arrivals = p2p::poisson_arrivals(0.05, 2'000.0, rng);
  const auto result = p2p::simulate_swarm(config, arrivals, 50'000.0);

  const auto& counters = plane.metrics.counters();
  EXPECT_EQ(counters.at("p2p.finished").value(), result.finished);
  EXPECT_EQ(counters.at("p2p.aborted").value(), result.aborted);
  EXPECT_EQ(plane.metrics.digests().at("p2p.download_time").count(),
            result.finished);

  bool saw_swarm = false;
  for (const auto& rec : plane.tracer.records())
    if (std::string_view(rec.name) == "p2p.swarm") saw_swarm = true;
  EXPECT_TRUE(saw_swarm);

  // Observation must not perturb the simulation.
  auto bare = config;
  bare.obs = nullptr;
  const auto unobserved = p2p::simulate_swarm(bare, arrivals, 50'000.0);
  EXPECT_EQ(unobserved.finished, result.finished);
  EXPECT_DOUBLE_EQ(unobserved.mean_download_time, result.mean_download_time);
}

// ----------------------------------------------------- fault injection --

TEST(Faults, ChurnSpikeEvictsNewestLeechers) {
  const std::vector<double> arrivals = {0.0, 10.0, 20.0};
  atlarge::fault::FaultPlan plan;
  plan.add({50.0, atlarge::fault::FaultKind::kChurnSpike, 0, 0.0, 0.5});
  auto config = small_swarm();
  config.faults = &plan;
  const auto result = p2p::simulate_swarm(config, arrivals, 100'000.0);
  // floor(0.5 x 3 leechers) = 1 victim, evicted newest-first at the epoch
  // boundary that reaches the event time.
  EXPECT_EQ(result.churned, 1u);
  ASSERT_EQ(result.peers.size(), 3u);
  EXPECT_FALSE(result.peers[2].finished);
  EXPECT_DOUBLE_EQ(result.peers[2].departure, 50.0);
  EXPECT_TRUE(result.peers[0].finished);
  EXPECT_TRUE(result.peers[1].finished);
  EXPECT_EQ(result.finished, 2u);
}

TEST(Faults, FullMagnitudeSpikeDrainsTheSwarm) {
  const std::vector<double> arrivals = {0.0, 5.0, 10.0};
  atlarge::fault::FaultPlan plan;
  plan.add({30.0, atlarge::fault::FaultKind::kChurnSpike, 0, 0.0, 1.0});
  auto config = small_swarm();
  config.faults = &plan;
  const auto result = p2p::simulate_swarm(config, arrivals, 100'000.0);
  EXPECT_EQ(result.churned, 3u);
  EXPECT_EQ(result.finished, 0u);
  for (const auto& peer : result.peers) EXPECT_FALSE(peer.finished);
}

TEST(Faults, NonChurnKindsAreIgnoredBySwarm) {
  const std::vector<double> arrivals = {0.0, 10.0, 20.0};
  atlarge::fault::FaultPlan plan;
  plan.add({30.0, atlarge::fault::FaultKind::kMachineCrash, 0, 10.0, 0.5});
  plan.add({40.0, atlarge::fault::FaultKind::kSlowdown, 0, 10.0, 0.5});
  auto config = small_swarm();
  const auto clean = p2p::simulate_swarm(config, arrivals, 100'000.0);
  config.faults = &plan;
  const auto faulted = p2p::simulate_swarm(config, arrivals, 100'000.0);
  EXPECT_EQ(faulted.churned, 0u);
  EXPECT_EQ(faulted.finished, clean.finished);
  EXPECT_EQ(faulted.mean_download_time, clean.mean_download_time);
  EXPECT_EQ(faulted.peak_swarm_size, clean.peak_swarm_size);
}
