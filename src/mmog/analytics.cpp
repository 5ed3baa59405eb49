#include "atlarge/mmog/analytics.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace atlarge::mmog {

MatchLog generate_match_log(const MatchLogConfig& config) {
  MatchLog log;
  log.config = config;
  stats::Rng rng(config.seed);

  log.community.resize(config.players);
  log.skill.resize(config.players);
  log.toxic.resize(config.players);
  for (std::size_t p = 0; p < config.players; ++p) {
    log.community[p] = static_cast<std::uint32_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(config.communities) - 1));
    log.skill[p] = rng.normal(25.0, 8.0);
    log.toxic[p] = rng.bernoulli(config.toxic_fraction);
  }

  // Players per community, for in-community sampling.
  std::vector<std::vector<PlayerId>> members(config.communities);
  for (std::size_t p = 0; p < config.players; ++p)
    members[log.community[p]].push_back(static_cast<PlayerId>(p));

  log.matches.reserve(config.matches);
  for (std::size_t m = 0; m < config.matches; ++m) {
    MatchRecord match;
    match.time = static_cast<double>(m);
    const auto size = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(config.group_min),
                        static_cast<std::int64_t>(config.group_max)));
    const bool in_community = rng.bernoulli(config.in_community_prob);
    const auto anchor = static_cast<PlayerId>(
        rng.uniform_int(0, static_cast<std::int64_t>(config.players) - 1));
    match.players.push_back(anchor);
    const auto& pool =
        in_community && members[log.community[anchor]].size() >= size
            ? members[log.community[anchor]]
            : std::vector<PlayerId>{};
    while (match.players.size() < size) {
      PlayerId candidate;
      if (!pool.empty()) {
        candidate = pool[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(pool.size()) - 1))];
      } else {
        candidate = static_cast<PlayerId>(rng.uniform_int(
            0, static_cast<std::int64_t>(config.players) - 1));
      }
      if (std::find(match.players.begin(), match.players.end(), candidate) ==
          match.players.end())
        match.players.push_back(candidate);
    }
    log.matches.push_back(std::move(match));
  }
  return log;
}

SocialGraph::SocialGraph(std::size_t players) : adjacency_(players) {}

SocialGraph SocialGraph::from_matches(
    std::size_t players, const std::vector<MatchRecord>& matches) {
  SocialGraph graph(players);
  for (const auto& m : matches) {
    for (std::size_t i = 0; i < m.players.size(); ++i) {
      for (std::size_t j = i + 1; j < m.players.size(); ++j) {
        graph.add_edge(m.players[i], m.players[j]);
      }
    }
  }
  return graph;
}

std::size_t SocialGraph::edges() const noexcept {
  std::size_t total = 0;
  for (const auto& adj : adjacency_) total += adj.size();
  return total / 2;
}

void SocialGraph::add_edge(PlayerId a, PlayerId b, double weight) {
  if (a == b || a >= adjacency_.size() || b >= adjacency_.size()) return;
  const auto bump = [&](PlayerId u, PlayerId v) {
    for (auto& [other, w] : adjacency_[u]) {
      if (other == v) {
        w += weight;
        return;
      }
    }
    adjacency_[u].emplace_back(v, weight);
  };
  bump(a, b);
  bump(b, a);
}

double SocialGraph::edge_weight(PlayerId a, PlayerId b) const {
  if (a >= adjacency_.size()) return 0.0;
  for (const auto& [other, w] : adjacency_[a])
    if (other == b) return w;
  return 0.0;
}

double SocialGraph::clustering_coefficient() const {
  // Transitivity: 3 * triangles / open+closed triplets.
  std::size_t closed = 0;
  std::size_t triplets = 0;
  for (PlayerId u = 0; u < adjacency_.size(); ++u) {
    const auto& adj = adjacency_[u];
    const std::size_t d = adj.size();
    if (d < 2) continue;
    triplets += d * (d - 1) / 2;
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = i + 1; j < d; ++j) {
        if (edge_weight(adj[i].first, adj[j].first) > 0.0) ++closed;
      }
    }
  }
  return triplets == 0 ? 0.0
                       : static_cast<double>(closed) /
                             static_cast<double>(triplets);
}

double SocialGraph::community_cohesion(
    const std::vector<std::uint32_t>& labels) const {
  double internal = 0.0;
  double total = 0.0;
  for (PlayerId u = 0; u < adjacency_.size(); ++u) {
    for (const auto& [v, w] : adjacency_[u]) {
      total += w;
      if (u < labels.size() && v < labels.size() && labels[u] == labels[v])
        internal += w;
    }
  }
  return total > 0.0 ? internal / total : 0.0;
}

double matchmaking_skill_gap(const MatchLog& log, bool skill_based,
                             std::size_t rounds, std::uint64_t seed) {
  stats::Rng rng(seed);
  const std::size_t n = log.skill.size();
  if (n < 2 || rounds == 0) return 0.0;
  double gap_sum = 0.0;
  if (skill_based) {
    // Greedy pairing by skill order; each round pairs a random contiguous
    // window of the skill-sorted lobby (matchmaking pools are local).
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return log.skill[a] < log.skill[b];
    });
    for (std::size_t r = 0; r < rounds; ++r) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 2));
      gap_sum +=
          std::abs(log.skill[order[i]] - log.skill[order[i + 1]]);
    }
  } else {
    for (std::size_t r = 0; r < rounds; ++r) {
      const auto a = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      auto b = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      if (b == a) b = (b + 1) % n;
      gap_sum += std::abs(log.skill[a] - log.skill[b]);
    }
  }
  return gap_sum / static_cast<double>(rounds);
}

ToxicityOutcome detect_toxicity(const MatchLog& log, double threshold,
                                std::size_t samples_per_player,
                                std::uint64_t seed) {
  stats::Rng rng(seed);
  std::size_t tp = 0;
  std::size_t fp = 0;
  std::size_t fn = 0;
  for (std::size_t p = 0; p < log.toxic.size(); ++p) {
    // Toxic players emit messages with mean score 0.6, others 0.2; both
    // with heavy noise — the signal is only visible in aggregate.
    const double mean = log.toxic[p] ? 0.6 : 0.2;
    double observed = 0.0;
    for (std::size_t s = 0; s < samples_per_player; ++s)
      observed += std::clamp(rng.normal(mean, 0.25), 0.0, 1.0);
    observed /= static_cast<double>(std::max<std::size_t>(
        samples_per_player, 1));
    const bool flagged = observed > threshold;
    if (flagged && log.toxic[p]) ++tp;
    if (flagged && !log.toxic[p]) ++fp;
    if (!flagged && log.toxic[p]) ++fn;
  }
  ToxicityOutcome out;
  if (tp + fp > 0)
    out.precision = static_cast<double>(tp) / static_cast<double>(tp + fp);
  if (tp + fn > 0)
    out.recall = static_cast<double>(tp) / static_cast<double>(tp + fn);
  if (out.precision + out.recall > 0.0)
    out.f1 = 2.0 * out.precision * out.recall /
             (out.precision + out.recall);
  return out;
}

}  // namespace atlarge::mmog
