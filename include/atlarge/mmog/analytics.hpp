#pragma once
// Gaming analytics (paper Section 6.2): the CAMEO-style analytics function
// of the MMOG ecosystem. Three published directions are reproduced:
//  * implicit social networks from co-play ([74]): who plays with whom
//    forms a graph with community structure, even without explicit
//    friendship;
//  * matchmaking on the implicit network and skill ([74], [91]);
//  * toxicity detection ([77]): classifying toxic players from noisy
//    per-message signals.

#include <cstdint>
#include <vector>

#include "atlarge/stats/rng.hpp"

namespace atlarge::mmog {

using PlayerId = std::uint32_t;

struct MatchRecord {
  double time = 0.0;
  std::vector<PlayerId> players;  // co-play group (party or match lobby)
};

struct MatchLogConfig {
  std::size_t players = 500;
  std::size_t matches = 3'000;
  std::size_t communities = 10;     // latent social groups
  double in_community_prob = 0.8;   // chance a match stays in-community
  std::size_t group_min = 2;
  std::size_t group_max = 5;
  double toxic_fraction = 0.05;     // latently toxic players
  std::uint64_t seed = 1;
};

struct MatchLog {
  MatchLogConfig config;
  std::vector<MatchRecord> matches;
  std::vector<std::uint32_t> community;  // latent community per player
  std::vector<double> skill;             // latent skill per player, ~N(25,8)
  std::vector<bool> toxic;               // latent toxicity per player
};

MatchLog generate_match_log(const MatchLogConfig& config);

/// The implicit social network: players are nodes, co-play counts are
/// edge weights.
class SocialGraph {
 public:
  explicit SocialGraph(std::size_t players);

  /// Builds the graph from a match log (every pair in a match gains one
  /// unit of edge weight).
  static SocialGraph from_matches(std::size_t players,
                                  const std::vector<MatchRecord>& matches);

  std::size_t players() const noexcept { return adjacency_.size(); }
  std::size_t edges() const noexcept;
  void add_edge(PlayerId a, PlayerId b, double weight = 1.0);
  double edge_weight(PlayerId a, PlayerId b) const;

  /// Global clustering coefficient (transitivity) over the unweighted
  /// graph.
  double clustering_coefficient() const;
  /// Fraction of edge weight internal to the given community labeling —
  /// how well the implicit network recovers latent communities.
  double community_cohesion(const std::vector<std::uint32_t>& labels) const;

 private:
  std::vector<std::vector<std::pair<PlayerId, double>>> adjacency_;
};

/// Matchmaking experiment: forms `rounds` head-to-head pairs either
/// randomly or greedily by closest skill; returns the mean absolute skill
/// gap per pair (lower = fairer matches).
double matchmaking_skill_gap(const MatchLog& log, bool skill_based,
                             std::size_t rounds, std::uint64_t seed);

struct ToxicityOutcome {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
};

/// Toxicity detection: each player emits per-match toxicity scores
/// (toxic players have a higher mean); a player is flagged when their mean
/// observed score exceeds `threshold`. Returns detection quality against
/// the latent ground truth.
ToxicityOutcome detect_toxicity(const MatchLog& log, double threshold,
                                std::size_t samples_per_player,
                                std::uint64_t seed);

}  // namespace atlarge::mmog
