#include "atlarge/graph/graph.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

namespace atlarge::graph {
namespace {

/// Stable counting sort of edge indices by `key(edges[i])`: `order_in` is
/// permuted into `order_out` so that keys ascend and equal keys keep their
/// `order_in` order. `counts` is scratch of size n+1 (overwritten).
template <typename Key>
void counting_pass(const std::vector<std::pair<VertexId, VertexId>>& edges,
                   const std::vector<std::size_t>& order_in,
                   std::vector<std::size_t>& order_out,
                   std::vector<std::size_t>& counts, Key key) {
  std::fill(counts.begin(), counts.end(), 0);
  for (const std::size_t i : order_in) ++counts[key(edges[i]) + 1];
  for (std::size_t i = 1; i < counts.size(); ++i) counts[i] += counts[i - 1];
  for (const std::size_t i : order_in) order_out[counts[key(edges[i])]++] = i;
}

}  // namespace

Graph Graph::from_edges(VertexId n,
                        std::vector<std::pair<VertexId, VertexId>> edges,
                        std::vector<double> weights) {
  if (!weights.empty() && weights.size() != edges.size())
    throw std::invalid_argument("Graph: weights/edges size mismatch");
  for (const auto& [u, v] : edges) {
    if (u >= n || v >= n)
      throw std::invalid_argument("Graph: edge endpoint out of range");
  }

  // Two stable counting passes (by target, then by source) sort the edge
  // indices by (source, target) in O(n + m) — no comparison sort.
  std::vector<std::size_t> by_target(edges.size());
  std::vector<std::size_t> order(edges.size());
  {
    std::vector<std::size_t> identity(edges.size());
    for (std::size_t i = 0; i < identity.size(); ++i) identity[i] = i;
    std::vector<std::size_t> counts(static_cast<std::size_t>(n) + 1);
    counting_pass(edges, identity, by_target, counts,
                  [](const auto& e) { return e.second; });
    counting_pass(edges, by_target, order, counts,
                  [](const auto& e) { return e.first; });
  }

  Graph g;
  g.n_ = n;
  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  std::vector<std::pair<VertexId, VertexId>> kept;
  kept.reserve(edges.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    const auto& e = edges[order[k]];
    if (e.first == e.second) continue;                     // self-loop
    if (!kept.empty() && kept.back() == e) continue;       // duplicate
    kept.push_back(e);
    g.heads_.push_back(e.second);
    if (!weights.empty()) g.weights_.push_back(weights[order[k]]);
    ++g.offsets_[e.first + 1];
  }
  for (std::size_t i = 1; i < g.offsets_.size(); ++i)
    g.offsets_[i] += g.offsets_[i - 1];

  // In-CSR: counting-scatter of the kept edges by target. Kept edges are
  // walked in (source, target) order, so every in-adjacency list comes out
  // sorted by source.
  g.in_offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& e : kept) ++g.in_offsets_[e.second + 1];
  for (std::size_t i = 1; i < g.in_offsets_.size(); ++i)
    g.in_offsets_[i] += g.in_offsets_[i - 1];
  g.in_heads_.resize(kept.size());
  std::vector<std::size_t> cursor(g.in_offsets_.begin(),
                                  g.in_offsets_.end() - 1);
  for (const auto& [u, v] : kept) g.in_heads_[cursor[v]++] = u;

  // Undirected CSR: per vertex, merge the sorted out- and in-lists,
  // dropping duplicates (edges present in both directions).
  g.und_offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  g.und_heads_.reserve(2 * kept.size());
  for (VertexId v = 0; v < n; ++v) {
    const auto a = g.out(v);
    const auto b = g.in(v);
    std::size_t i = 0, j = 0;
    while (i < a.size() || j < b.size()) {
      VertexId next;
      if (j == b.size() || (i < a.size() && a[i] < b[j])) {
        next = a[i++];
      } else if (i == a.size() || b[j] < a[i]) {
        next = b[j++];
      } else {  // equal: one neighbor, both directions
        next = a[i++];
        ++j;
      }
      g.und_heads_.push_back(next);
    }
    g.und_offsets_[v + 1] = g.und_heads_.size();
  }
  return g;
}

std::vector<std::pair<VertexId, VertexId>> Graph::edge_list() const {
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(heads_.size());
  for (VertexId v = 0; v < n_; ++v) {
    for (VertexId u : out(v)) edges.emplace_back(v, u);
  }
  return edges;
}

Graph erdos_renyi(VertexId n, double avg_deg, stats::Rng& rng) {
  // Draw until the *kept* edge count reaches the target: a rejected draw
  // (self-loop or duplicate) is redrawn instead of silently shrinking the
  // realized density below avg_deg. Retries are bounded so a target near
  // the complete graph cannot loop forever.
  const auto max_edges = static_cast<std::size_t>(n) *
                         (n > 0 ? static_cast<std::size_t>(n) - 1 : 0);
  const auto target = std::min(
      static_cast<std::size_t>(std::llround(avg_deg * n)), max_edges);
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(target);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(2 * target);
  const std::size_t max_attempts = 10 * target + 1'000;
  for (std::size_t attempt = 0;
       edges.size() < target && attempt < max_attempts; ++attempt) {
    const auto u = static_cast<VertexId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const auto v = static_cast<VertexId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    if (u == v) continue;
    const std::uint64_t key = (static_cast<std::uint64_t>(u) << 32) | v;
    if (!seen.insert(key).second) continue;
    edges.emplace_back(u, v);
  }
  return Graph::from_edges(n, std::move(edges));
}

Graph preferential_attachment(VertexId n, std::uint32_t m, stats::Rng& rng) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  // targets_ holds one entry per edge endpoint; sampling uniformly from it
  // is sampling proportionally to degree.
  std::vector<VertexId> targets;
  const VertexId seed_vertices = std::max<VertexId>(m, 2);
  for (VertexId v = 0; v + 1 < seed_vertices; ++v) {
    edges.emplace_back(v, v + 1);
    targets.push_back(v);
    targets.push_back(v + 1);
  }
  for (VertexId v = seed_vertices; v < n; ++v) {
    for (std::uint32_t k = 0; k < m; ++k) {
      const VertexId target = targets[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(targets.size()) - 1))];
      edges.emplace_back(v, target);
      targets.push_back(v);
      targets.push_back(target);
    }
  }
  return Graph::from_edges(n, std::move(edges));
}

Graph grid_2d(VertexId side) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  const auto at = [side](VertexId x, VertexId y) { return y * side + x; };
  for (VertexId y = 0; y < side; ++y) {
    for (VertexId x = 0; x < side; ++x) {
      if (x + 1 < side) edges.emplace_back(at(x, y), at(x + 1, y));
      if (y + 1 < side) edges.emplace_back(at(x, y), at(x, y + 1));
    }
  }
  return Graph::from_edges(side * side, std::move(edges));
}

Graph with_random_weights(const Graph& g, double lo, double hi,
                          stats::Rng& rng) {
  auto edges = g.edge_list();
  std::vector<double> weights;
  weights.reserve(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i)
    weights.push_back(rng.uniform(lo, hi));
  return Graph::from_edges(g.num_vertices(), std::move(edges),
                           std::move(weights));
}

}  // namespace atlarge::graph
