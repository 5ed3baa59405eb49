// Tests for MMOG workloads, provisioning, interest management, and
// analytics (paper Section 6.2).

#include <algorithm>

#include <gtest/gtest.h>

#include "atlarge/mmog/analytics.hpp"
#include "atlarge/mmog/interest.hpp"
#include "atlarge/mmog/provisioning.hpp"
#include "atlarge/mmog/workload.hpp"

namespace mmog = atlarge::mmog;

namespace {

mmog::PopulationConfig week_config(mmog::Genre genre = mmog::Genre::kMmorpg) {
  mmog::PopulationConfig config;
  config.genre = genre;
  config.base_players = 10'000.0;
  config.days = 7.0;
  config.step = 600.0;
  config.seed = 1;
  return config;
}

}  // namespace

TEST(Population, SeriesCoversHorizon) {
  const auto series = mmog::generate_population(week_config());
  ASSERT_FALSE(series.points.empty());
  EXPECT_DOUBLE_EQ(series.points.front().time, 0.0);
  EXPECT_GT(series.points.back().time, 6.9 * 86'400.0);
}

TEST(Population, PlayersNonNegative) {
  const auto series = mmog::generate_population(week_config());
  for (const auto& p : series.points) EXPECT_GE(p.players, 0.0);
}

TEST(Population, DiurnalSwingVisible) {
  auto config = week_config();
  config.noise = 0.0;
  const auto series = mmog::generate_population(config);
  EXPECT_GT(series.peak_to_mean(), 1.3);
}

TEST(Population, ContentUpdateCreatesSurge) {
  auto base = week_config();
  base.noise = 0.0;
  auto with_update = base;
  with_update.update_times = {3.0 * 86'400.0};
  const auto quiet = mmog::generate_population(base);
  const auto surged = mmog::generate_population(with_update);
  EXPECT_GT(surged.peak(), quiet.peak() * 1.3);
}

TEST(Population, MobaNoisierThanMmorpg) {
  auto mmorpg_cfg = week_config(mmog::Genre::kMmorpg);
  auto moba_cfg = week_config(mmog::Genre::kMoba);
  const auto mmorpg = mmog::generate_population(mmorpg_cfg);
  const auto moba = mmog::generate_population(moba_cfg);
  // Compare step-to-step relative variation.
  const auto roughness = [](const mmog::PopulationSeries& s) {
    double total = 0.0;
    for (std::size_t i = 1; i < s.points.size(); ++i) {
      total += std::abs(s.points[i].players - s.points[i - 1].players) /
               std::max(s.points[i - 1].players, 1.0);
    }
    return total / static_cast<double>(s.points.size());
  };
  EXPECT_GT(roughness(moba), roughness(mmorpg));
}

TEST(Population, GenreNames) {
  EXPECT_EQ(mmog::to_string(mmog::Genre::kMmorpg), "MMORPG");
  EXPECT_EQ(mmog::to_string(mmog::Genre::kMoba), "MOBA");
  EXPECT_EQ(mmog::to_string(mmog::Genre::kOnlineSocial), "OnlineSocial");
}

// ------------------------------------------------------------ provisioning --

TEST(Provisioning, StaticNeverViolatesSla) {
  const auto series = mmog::generate_population(week_config());
  mmog::ProvisioningConfig config;
  const auto result = mmog::provision_static(series, config);
  EXPECT_DOUBLE_EQ(result.sla_violation_share, 0.0);
  EXPECT_GT(result.avg_servers, 0.0);
}

TEST(Provisioning, DynamicUsesFewerServerHours) {
  // The headline result of the paper's MMOG provisioning work [71], [87].
  const auto series = mmog::generate_population(week_config());
  mmog::ProvisioningConfig config;
  config.predictor = mmog::Predictor::kLinearTrend;
  const auto dynamic = mmog::provision_dynamic(series, config);
  const auto fixed = mmog::provision_static(series, config);
  EXPECT_LT(dynamic.server_hours, fixed.server_hours * 0.85);
}

TEST(Provisioning, DynamicKeepsSlaViolationsModest) {
  const auto series = mmog::generate_population(week_config());
  mmog::ProvisioningConfig config;
  config.predictor = mmog::Predictor::kLinearTrend;
  config.headroom = 1.2;
  const auto result = mmog::provision_dynamic(series, config);
  EXPECT_LT(result.sla_violation_share, 0.15);
}

TEST(Provisioning, HeadroomReducesViolations) {
  const auto series = mmog::generate_population(week_config());
  mmog::ProvisioningConfig tight;
  tight.headroom = 1.0;
  mmog::ProvisioningConfig loose;
  loose.headroom = 1.5;
  const auto r_tight = mmog::provision_dynamic(series, tight);
  const auto r_loose = mmog::provision_dynamic(series, loose);
  EXPECT_LE(r_loose.sla_violation_share, r_tight.sla_violation_share);
  EXPECT_GT(r_loose.server_hours, r_tight.server_hours);
}

TEST(Provisioning, AllPredictorsRun) {
  const auto series = mmog::generate_population(week_config());
  for (auto p : {mmog::Predictor::kLastValue, mmog::Predictor::kMovingAverage,
                 mmog::Predictor::kExponential,
                 mmog::Predictor::kLinearTrend}) {
    mmog::ProvisioningConfig config;
    config.predictor = p;
    const auto result = mmog::provision_dynamic(series, config);
    EXPECT_GT(result.avg_servers, 0.0) << mmog::to_string(p);
    EXPECT_GE(result.peak_servers, result.avg_servers) << mmog::to_string(p);
  }
}

TEST(Provisioning, EmptySeriesYieldsZeroResult) {
  mmog::PopulationSeries empty;
  mmog::ProvisioningConfig config;
  const auto result = mmog::provision_dynamic(empty, config);
  EXPECT_DOUBLE_EQ(result.avg_servers, 0.0);
}

// ---------------------------------------------------------------- interest --

namespace {

mmog::WorldConfig clustered_world(std::size_t entities) {
  mmog::WorldConfig config;
  config.entities = entities;
  config.hotspots = 4;
  config.hotspot_fraction = 0.8;
  config.seed = 7;
  return config;
}

}  // namespace

TEST(Interest, WorldGeneratorPlacesEntitiesInBounds) {
  const auto world = mmog::generate_world(clustered_world(500));
  EXPECT_EQ(world.entities.size(), 500u);
  for (const auto& e : world.entities) {
    EXPECT_GE(e.x, 0.0);
    EXPECT_LE(e.x, world.config.size);
    EXPECT_GE(e.y, 0.0);
    EXPECT_LE(e.y, world.config.size);
  }
}

TEST(Interest, HotspotFractionRoughlyRespected) {
  const auto world = mmog::generate_world(clustered_world(2'000));
  std::size_t clustered = 0;
  for (const auto& e : world.entities) clustered += e.in_hotspot;
  EXPECT_NEAR(static_cast<double>(clustered) / 2'000.0, 0.8, 0.05);
}

TEST(Interest, FullReplicationPerfectlyBalanced) {
  const auto world = mmog::generate_world(clustered_world(500));
  const auto report = mmog::evaluate_interest_management(
      mmog::ImTechnique::kFullReplication, world, mmog::ImConfig{});
  EXPECT_NEAR(report.imbalance, 1.0, 1e-9);
}

TEST(Interest, ZoningImbalancedUnderClustering) {
  const auto world = mmog::generate_world(clustered_world(2'000));
  const auto report = mmog::evaluate_interest_management(
      mmog::ImTechnique::kZoning, world, mmog::ImConfig{});
  EXPECT_GT(report.imbalance, 1.5);
}

TEST(Interest, AosCheaperThanFullReplicationAtScale) {
  const auto world = mmog::generate_world(clustered_world(4'000));
  mmog::ImConfig config;
  const auto aos = mmog::evaluate_interest_management(
      mmog::ImTechnique::kAreaOfSimulation, world, config);
  const auto full = mmog::evaluate_interest_management(
      mmog::ImTechnique::kFullReplication, world, config);
  EXPECT_LT(aos.busiest_server_cost, full.busiest_server_cost);
}

TEST(Interest, AosScalesFurtherThanZoning) {
  // The RTSenv/AoS discovery: with hotspot-clustered entities, AoS
  // sustains more entities within the tick budget than zoning.
  const std::vector<std::size_t> candidates = {250,   500,   1'000, 2'000,
                                               4'000, 8'000, 16'000};
  mmog::ImConfig config;
  const auto zoning_max = mmog::max_sustainable_entities(
      mmog::ImTechnique::kZoning, clustered_world(0), config, candidates);
  const auto aos_max = mmog::max_sustainable_entities(
      mmog::ImTechnique::kAreaOfSimulation, clustered_world(0), config,
      candidates);
  EXPECT_GE(aos_max, zoning_max);
  EXPECT_GT(aos_max, 0u);
}

TEST(Interest, TechniqueNames) {
  EXPECT_EQ(mmog::to_string(mmog::ImTechnique::kZoning), "zoning");
  EXPECT_EQ(mmog::to_string(mmog::ImTechnique::kFullReplication),
            "full-replication");
  EXPECT_EQ(mmog::to_string(mmog::ImTechnique::kAreaOfSimulation),
            "area-of-simulation");
}

// --------------------------------------------------------------- analytics --

namespace {

mmog::MatchLogConfig log_config() {
  mmog::MatchLogConfig config;
  config.players = 300;
  config.matches = 2'000;
  config.communities = 6;
  config.in_community_prob = 0.85;
  config.seed = 5;
  return config;
}

}  // namespace

TEST(Analytics, MatchLogShape) {
  const auto log = mmog::generate_match_log(log_config());
  EXPECT_EQ(log.matches.size(), 2'000u);
  EXPECT_EQ(log.skill.size(), 300u);
  for (const auto& m : log.matches) {
    EXPECT_GE(m.players.size(), 2u);
    EXPECT_LE(m.players.size(), 5u);
    // No duplicate players inside a match.
    auto players = m.players;
    std::sort(players.begin(), players.end());
    EXPECT_EQ(std::unique(players.begin(), players.end()), players.end());
  }
}

TEST(Analytics, ImplicitGraphHasEdges) {
  const auto log = mmog::generate_match_log(log_config());
  const auto graph =
      mmog::SocialGraph::from_matches(log.config.players, log.matches);
  EXPECT_GT(graph.edges(), 100u);
  EXPECT_GT(graph.clustering_coefficient(), 0.0);
}

TEST(Analytics, CoPlayIncrementsWeight) {
  mmog::SocialGraph graph(3);
  graph.add_edge(0, 1);
  graph.add_edge(0, 1);
  EXPECT_DOUBLE_EQ(graph.edge_weight(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(graph.edge_weight(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(graph.edge_weight(0, 2), 0.0);
}

TEST(Analytics, SelfAndOutOfRangeEdgesIgnored) {
  mmog::SocialGraph graph(2);
  graph.add_edge(0, 0);
  graph.add_edge(0, 99);
  EXPECT_EQ(graph.edges(), 0u);
}

TEST(Analytics, CommunityStructureRecovered) {
  // The implicit network's edge weight should concentrate inside latent
  // communities (the [74] finding).
  const auto log = mmog::generate_match_log(log_config());
  const auto graph =
      mmog::SocialGraph::from_matches(log.config.players, log.matches);
  EXPECT_GT(graph.community_cohesion(log.community), 0.6);
}

TEST(Analytics, SkillMatchmakingFairerThanRandom) {
  const auto log = mmog::generate_match_log(log_config());
  const double random_gap = mmog::matchmaking_skill_gap(log, false, 2'000, 9);
  const double skill_gap = mmog::matchmaking_skill_gap(log, true, 2'000, 9);
  EXPECT_LT(skill_gap, random_gap * 0.5);
}

TEST(Analytics, ToxicityDetectionBeatsChance) {
  auto config = log_config();
  config.toxic_fraction = 0.1;
  const auto log = mmog::generate_match_log(config);
  const auto outcome = mmog::detect_toxicity(log, 0.4, 30, 11);
  EXPECT_GT(outcome.recall, 0.6);
  EXPECT_GT(outcome.precision, 0.5);
  EXPECT_GT(outcome.f1, 0.55);
}

TEST(Analytics, ToxicityThresholdTradesPrecisionRecall) {
  auto config = log_config();
  config.toxic_fraction = 0.1;
  const auto log = mmog::generate_match_log(config);
  const auto lenient = mmog::detect_toxicity(log, 0.3, 30, 11);
  const auto strict = mmog::detect_toxicity(log, 0.55, 30, 11);
  EXPECT_GE(lenient.recall, strict.recall);
  EXPECT_LE(lenient.precision, strict.precision + 1e-9);
}
