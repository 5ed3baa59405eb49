#pragma once
// Compressed-sparse-row graph and generators for the Graphalytics substrate
// (paper Section 6.5). The LDBC Graphalytics benchmark the AtLarge team
// created runs six algorithms over platform x dataset combinations; this
// module supplies the datasets (synthetic generators spanning the degree
// distributions that drive the PAD effect) and the graph representation
// the algorithms in algorithms.hpp operate on.
//
// Three CSR views are materialized once at construction:
//  * out-CSR  — out-neighbors per vertex, sorted by target;
//  * in-CSR   — in-neighbors per vertex, sorted by source;
//  * und-CSR  — distinct undirected neighbors per vertex, sorted — the
//    merged view WCC/CDLP/LCC operate on through neighbors().
// The build is counting-sort based (two stable counting passes over the
// edge list instead of a comparison sort), so construction is O(n + m).

#include <cstdint>
#include <span>
#include <vector>

#include "atlarge/stats/rng.hpp"

namespace atlarge::graph {

using VertexId = std::uint32_t;

/// Raw pointers into one CSR direction of a Graph. Kernel inner loops
/// hoist these out of the per-vertex loop and mark their local copies
/// __restrict: the per-edge span construction disappears and the compiler
/// can vectorize the gather, which it cannot prove safe through the
/// accessor methods. Vertex v's edges are heads[offsets[v]..offsets[v+1]);
/// edge counts fall out of offset differences, no per-edge counter needed.
struct CsrView {
  const std::size_t* offsets;  // size n+1
  const VertexId* heads;
};

/// Immutable directed graph in CSR form, with optional edge weights.
/// Vertices are [0, num_vertices). Self-loops and parallel edges are
/// removed at build time (the first occurrence of a parallel edge, in
/// input order, keeps its weight).
class Graph {
 public:
  /// Builds from an edge list; `n` is the vertex count (edges must stay in
  /// range or std::invalid_argument is thrown).
  static Graph from_edges(VertexId n,
                          std::vector<std::pair<VertexId, VertexId>> edges,
                          std::vector<double> weights = {});

  VertexId num_vertices() const noexcept { return n_; }
  std::size_t num_edges() const noexcept { return heads_.size(); }

  // The CSR accessors are defined inline: they sit on the innermost loop
  // of every kernel, where an out-of-line call per edge would dominate.

  /// Out-neighbors of v, sorted ascending.
  std::span<const VertexId> out(VertexId v) const {
    return {heads_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }
  /// Weight of the i-th out-edge of v (1.0 when the graph is unweighted).
  double out_weight(VertexId v, std::size_t i) const {
    return weights_.empty() ? 1.0 : weights_[offsets_[v] + i];
  }
  std::uint32_t out_degree(VertexId v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }
  std::uint32_t in_degree(VertexId v) const {
    return static_cast<std::uint32_t>(in_offsets_[v + 1] - in_offsets_[v]);
  }

  /// In-neighbors of v, sorted ascending (both directions are materialized
  /// at construction for algorithmic convenience).
  std::span<const VertexId> in(VertexId v) const {
    return {in_heads_.data() + in_offsets_[v],
            in_offsets_[v + 1] - in_offsets_[v]};
  }

  /// Undirected neighbors of v: distinct neighbors in either direction,
  /// sorted ascending, from the undirected CSR materialized at
  /// construction. Shared by WCC/CDLP/LCC.
  std::span<const VertexId> neighbors(VertexId v) const {
    return {und_heads_.data() + und_offsets_[v],
            und_offsets_[v + 1] - und_offsets_[v]};
  }
  /// Undirected view degree: distinct neighbors in either direction.
  std::uint32_t und_degree(VertexId v) const {
    return static_cast<std::uint32_t>(und_offsets_[v + 1] - und_offsets_[v]);
  }

  /// Raw views of the three CSR directions, for kernel inner loops (see
  /// CsrView). Valid as long as the Graph is.
  CsrView out_csr() const noexcept { return {offsets_.data(), heads_.data()}; }
  CsrView in_csr() const noexcept {
    return {in_offsets_.data(), in_heads_.data()};
  }
  CsrView und_csr() const noexcept {
    return {und_offsets_.data(), und_heads_.data()};
  }

  bool weighted() const noexcept { return !weights_.empty(); }

  /// The edge list back out (in CSR order), for re-weighting and I/O.
  std::vector<std::pair<VertexId, VertexId>> edge_list() const;

 private:
  VertexId n_ = 0;
  std::vector<std::size_t> offsets_;   // out-CSR offsets, size n+1
  std::vector<VertexId> heads_;        // out-edge targets
  std::vector<double> weights_;        // parallel to heads_ (may be empty)
  std::vector<std::size_t> in_offsets_;
  std::vector<VertexId> in_heads_;
  std::vector<std::size_t> und_offsets_;  // undirected CSR offsets
  std::vector<VertexId> und_heads_;       // distinct merged neighbors
};

/// G(n, p)-style random graph with average out-degree `avg_deg`: endpoint
/// pairs are redrawn (bounded retries) until the graph *keeps* the target
/// number of edges after self-loop/duplicate removal, so the realized
/// density matches the request instead of silently undershooting it.
Graph erdos_renyi(VertexId n, double avg_deg, atlarge::stats::Rng& rng);

/// Power-law graph via preferential attachment (Barabási-Albert flavor):
/// each new vertex attaches `m` out-edges preferentially to high-degree
/// targets. Produces the skewed degree distributions of web/social graphs.
Graph preferential_attachment(VertexId n, std::uint32_t m,
                              atlarge::stats::Rng& rng);

/// 2-D grid (four-neighborhood), the regular-structure extreme: high
/// diameter, uniform degree — the dataset class where BFS-like algorithms
/// behave completely differently from social networks.
Graph grid_2d(VertexId side);

/// Uniform random weights in [lo, hi) attached to an unweighted graph's
/// edges (for SSSP).
Graph with_random_weights(const Graph& g, double lo, double hi,
                          atlarge::stats::Rng& rng);

}  // namespace atlarge::graph
