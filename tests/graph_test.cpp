// Tests for the graph substrate: CSR representation, generators, the six
// Graphalytics algorithms (serial golden results and parallel
// determinism), the PAD study, and Granula breakdowns.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include <gtest/gtest.h>

#include "atlarge/graph/algorithms.hpp"
#include "atlarge/graph/granula.hpp"
#include "atlarge/graph/graph.hpp"
#include "atlarge/graph/pad.hpp"
#include "atlarge/obs/observability.hpp"

namespace graph = atlarge::graph;
using atlarge::stats::Rng;
using graph::VertexId;

namespace {

// 0 -> 1 -> 2, 0 -> 2, isolated 3.
graph::Graph tiny() {
  return graph::Graph::from_edges(4, {{0, 1}, {1, 2}, {0, 2}});
}

// K4 minus the {2,3} edge: two triangles {0,1,2} and {0,1,3} sharing the
// 0-1 edge. Small enough that every kernel's result is derivable by hand.
graph::Graph diamond() {
  return graph::Graph::from_edges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}});
}

graph::KernelOptions threads(std::uint32_t t) {
  graph::KernelOptions opts;
  opts.threads = t;
  return opts;
}

}  // namespace

TEST(Graph, FromEdgesBasics) {
  const auto g = tiny();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(2), 2u);
  EXPECT_EQ(g.out_degree(3), 0u);
}

TEST(Graph, SelfLoopsAndDuplicatesRemoved) {
  const auto g = graph::Graph::from_edges(3, {{0, 0}, {0, 1}, {0, 1}, {1, 2}});
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Graph, OutOfRangeEdgeRejected) {
  EXPECT_THROW(graph::Graph::from_edges(2, {{0, 5}}), std::invalid_argument);
}

TEST(Graph, WeightsParallelEdges) {
  const auto g =
      graph::Graph::from_edges(2, {{0, 1}}, {2.5});
  EXPECT_TRUE(g.weighted());
  EXPECT_DOUBLE_EQ(g.out_weight(0, 0), 2.5);
}

TEST(Graph, WeightArityMismatchRejected) {
  EXPECT_THROW(graph::Graph::from_edges(2, {{0, 1}}, {1.0, 2.0}),
               std::invalid_argument);
}

TEST(Graph, UnweightedDefaultsToUnitWeight) {
  const auto g = tiny();
  EXPECT_DOUBLE_EQ(g.out_weight(0, 0), 1.0);
}

TEST(Graph, EdgeListRoundTrips) {
  const auto g = tiny();
  const auto edges = g.edge_list();
  const auto g2 = graph::Graph::from_edges(4, edges);
  EXPECT_EQ(g2.num_edges(), g.num_edges());
}

TEST(Graph, UndirectedAdjacencySymmetric) {
  const auto g = tiny();
  // Every directed edge is visible from both sides: 0->1 from 1 too.
  const auto n1 = g.neighbors(1);
  EXPECT_NE(std::find(n1.begin(), n1.end(), 0u), n1.end());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const VertexId u : g.neighbors(v)) {
      const auto back = g.neighbors(u);
      EXPECT_NE(std::find(back.begin(), back.end(), v), back.end())
          << v << "-" << u;
    }
  }
}

TEST(Generators, ErdosRenyiApproxDegree) {
  Rng rng(1);
  const auto g = graph::erdos_renyi(2'000, 8.0, rng);
  const double avg =
      static_cast<double>(g.num_edges()) / g.num_vertices();
  EXPECT_NEAR(avg, 8.0, 0.5);  // slight dedup loss
}

TEST(Generators, PreferentialAttachmentSkewed) {
  Rng rng(2);
  const auto g = graph::preferential_attachment(3'000, 3, rng);
  std::vector<double> degrees;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    degrees.push_back(g.out_degree(v) + g.in_degree(v));
  std::sort(degrees.rbegin(), degrees.rend());
  const double total = std::accumulate(degrees.begin(), degrees.end(), 0.0);
  double top_share = 0.0;
  for (std::size_t i = 0; i < degrees.size() / 100; ++i)
    top_share += degrees[i];
  // Top 1% of vertices holds a disproportionate degree share.
  EXPECT_GT(top_share / total, 0.05);
}

TEST(Generators, GridShape) {
  const auto g = graph::grid_2d(10);
  EXPECT_EQ(g.num_vertices(), 100u);
  EXPECT_EQ(g.num_edges(), 2u * 9u * 10u);
}

// -------------------------------------------------------------- algorithms --

TEST(Bfs, DepthsOnTiny) {
  const auto result = graph::bfs(tiny(), 0);
  EXPECT_EQ(result.depth[0], 0u);
  EXPECT_EQ(result.depth[1], 1u);
  EXPECT_EQ(result.depth[2], 1u);
  EXPECT_EQ(result.depth[3], graph::kUnreachable);
}

TEST(Bfs, GridDiameter) {
  const auto g = graph::grid_2d(20);
  const auto result = graph::bfs(g, 0);
  // Directed grid edges point right/down: farthest corner at depth 38.
  EXPECT_EQ(result.depth[g.num_vertices() - 1], 38u);
}

TEST(Bfs, WorkProfileCountsEdges) {
  const auto result = graph::bfs(tiny(), 0);
  EXPECT_EQ(result.work.edges_traversed, 3u);
}

TEST(PageRank, SumsToOne) {
  Rng rng(3);
  const auto g = graph::erdos_renyi(500, 6.0, rng);
  const auto result = graph::pagerank(g, 25);
  const double total =
      std::accumulate(result.rank.begin(), result.rank.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(PageRank, HubRanksHigher) {
  // Star: everyone points at vertex 0.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 1; v < 50; ++v) edges.emplace_back(v, 0);
  const auto g = graph::Graph::from_edges(50, edges);
  const auto result = graph::pagerank(g, 30);
  for (VertexId v = 1; v < 50; ++v)
    EXPECT_GT(result.rank[0], result.rank[v]);
}

TEST(PageRank, DanglingMassRedistributed) {
  // 0 -> 1, vertex 1 dangles; rank must still sum to 1.
  const auto g = graph::Graph::from_edges(2, {{0, 1}});
  const auto result = graph::pagerank(g, 50);
  EXPECT_NEAR(result.rank[0] + result.rank[1], 1.0, 1e-9);
  EXPECT_GT(result.rank[1], result.rank[0]);
}

TEST(Wcc, CountsComponents) {
  const auto g = graph::Graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}});
  const auto result = graph::wcc(g);
  EXPECT_EQ(result.num_components, 3u);  // {0,1,2}, {3,4}, {5}
  EXPECT_EQ(result.component[0], result.component[2]);
  EXPECT_NE(result.component[0], result.component[3]);
}

TEST(Wcc, DirectionIgnored) {
  const auto g = graph::Graph::from_edges(3, {{2, 0}, {1, 0}});
  const auto result = graph::wcc(g);
  EXPECT_EQ(result.num_components, 1u);
}

TEST(Cdlp, CliquesGetOneLabel) {
  // Two disjoint triangles.
  const auto g = graph::Graph::from_edges(
      6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  const auto result = graph::cdlp(g, 10);
  EXPECT_EQ(result.label[0], result.label[1]);
  EXPECT_EQ(result.label[1], result.label[2]);
  EXPECT_EQ(result.label[3], result.label[4]);
  EXPECT_NE(result.label[0], result.label[3]);
  EXPECT_EQ(result.num_communities, 2u);
}

TEST(Lcc, TriangleIsOne) {
  const auto g = graph::Graph::from_edges(3, {{0, 1}, {1, 2}, {2, 0}});
  const auto result = graph::lcc(g);
  for (double c : result.coefficient) EXPECT_DOUBLE_EQ(c, 1.0);
  EXPECT_DOUBLE_EQ(result.mean, 1.0);
}

TEST(Lcc, PathHasZero) {
  const auto g = graph::Graph::from_edges(3, {{0, 1}, {1, 2}});
  const auto result = graph::lcc(g);
  EXPECT_DOUBLE_EQ(result.mean, 0.0);
}

TEST(Sssp, WeightedShortestPath) {
  // 0 -> 1 (5), 0 -> 2 (1), 2 -> 1 (1): best 0->1 is 2 via 2.
  const auto g = graph::Graph::from_edges(3, {{0, 1}, {0, 2}, {2, 1}},
                                          {5.0, 1.0, 1.0});
  const auto result = graph::sssp(g, 0);
  EXPECT_DOUBLE_EQ(result.distance[1], 2.0);
  EXPECT_DOUBLE_EQ(result.distance[2], 1.0);
}

TEST(Sssp, UnreachableIsInfinite) {
  const auto result = graph::sssp(tiny(), 0);
  EXPECT_TRUE(std::isinf(result.distance[3]));
}

TEST(Sssp, MatchesBfsOnUnitWeights) {
  Rng rng(4);
  const auto g = graph::erdos_renyi(300, 4.0, rng);
  const auto d = graph::sssp(g, 0);
  const auto b = graph::bfs(g, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (b.depth[v] == graph::kUnreachable) {
      EXPECT_TRUE(std::isinf(d.distance[v]));
    } else {
      EXPECT_DOUBLE_EQ(d.distance[v], static_cast<double>(b.depth[v]));
    }
  }
}

TEST(Algorithms, AllSixRunViaDispatch) {
  Rng rng(5);
  const auto g = graph::erdos_renyi(200, 4.0, rng);
  for (auto algo : graph::all_algorithms()) {
    const auto work = graph::run_algorithm(g, algo);
    EXPECT_GT(work.iterations, 0u) << graph::to_string(algo);
  }
}

// -------------------------------------------------------------------- PAD --

TEST(Pad, PlatformsHaveDistinctProfiles) {
  const auto platforms = graph::standard_platforms();
  ASSERT_EQ(platforms.size(), 4u);
  EXPECT_GT(platforms[0].startup_s, platforms[2].startup_s);
}

TEST(Pad, CapacityWallDegradesRuntime) {
  graph::PlatformModel model;
  model.per_edge_ns = 10.0;
  model.capacity_edges = 100;
  model.degraded_factor = 10.0;
  graph::WorkProfile work;
  work.edges_traversed = 1'000;
  work.iterations = 1;
  const double small =
      graph::predict_runtime(model, graph::Algorithm::kBfs, work, 10, 50);
  const double large =
      graph::predict_runtime(model, graph::Algorithm::kBfs, work, 10, 500);
  EXPECT_NEAR(large / small, 10.0, 0.1);
}

TEST(Pad, InteractionLawHolds) {
  // The PAD law: with datasets spanning the platform capacity regimes
  // (via work-profile extrapolation), no single platform wins every
  // (algorithm, dataset) cell.
  Rng rng(6);
  const auto social = graph::preferential_attachment(8'000, 8, rng);
  const auto grid = graph::grid_2d(60);
  const std::vector<graph::NamedGraph> datasets = {
      {"social-S", &social, 1.0},
      {"social-L", &social, 2'000.0},
      {"social-XL", &social, 10'000.0},
      {"grid-L", &grid, 2'000.0}};
  const auto study =
      graph::run_pad_study(datasets, graph::standard_platforms());
  EXPECT_EQ(study.winners.size(), 24u);  // 6 algorithms x 4 datasets
  EXPECT_GT(study.distinct_winners, 1u);
}

TEST(Pad, SmallDatasetsFavorSingleNode) {
  // The complementary PAD prediction: in-memory-scale datasets sit in
  // the single-node platform's sweet spot, so it wins every cell.
  Rng rng(6);
  const auto social = graph::preferential_attachment(8'000, 8, rng);
  const std::vector<graph::NamedGraph> datasets = {{"small", &social, 1.0}};
  const auto study =
      graph::run_pad_study(datasets, graph::standard_platforms());
  EXPECT_EQ(study.distinct_winners, 1u);
  EXPECT_EQ(study.winners.front().second, "Native-1N");
}

TEST(Pad, ScaleExtrapolatesWork) {
  Rng rng(7);
  const auto g = graph::erdos_renyi(500, 4.0, rng);
  graph::PlatformModel linear;  // pure per-edge cost, no walls
  linear.name = "linear";
  linear.per_edge_ns = 10.0;
  const std::vector<graph::NamedGraph> base = {{"g", &g, 1.0}};
  const std::vector<graph::NamedGraph> scaled = {{"g", &g, 100.0}};
  const auto s1 = graph::run_pad_study(base, {linear});
  const auto s100 = graph::run_pad_study(scaled, {linear});
  for (std::size_t i = 0; i < s1.cells.size(); ++i) {
    EXPECT_NEAR(s100.cells[i].runtime_s / s1.cells[i].runtime_s, 100.0,
                1.0);
  }
}

TEST(Pad, CellsCoverFullCross) {
  Rng rng(7);
  const auto g = graph::erdos_renyi(500, 4.0, rng);
  const std::vector<graph::NamedGraph> datasets = {{"g", &g}};
  const auto study =
      graph::run_pad_study(datasets, graph::standard_platforms());
  EXPECT_EQ(study.cells.size(), 6u * 4u);
  for (const auto& cell : study.cells) EXPECT_GT(cell.runtime_s, 0.0);
}

// ---------------------------------------------------------------- granula --

TEST(Granula, ModeledBreakdownMatchesPrediction) {
  const auto platforms = graph::standard_platforms();
  graph::WorkProfile work;
  work.edges_traversed = 1'000'000;
  work.iterations = 20;
  const auto breakdown = graph::modeled_breakdown(
      platforms[0], graph::Algorithm::kPageRank, work, 10'000, 100'000);
  const double predicted = graph::predict_runtime(
      platforms[0], graph::Algorithm::kPageRank, work, 10'000, 100'000);
  EXPECT_NEAR(breakdown.total(), predicted, 1e-9);
  EXPECT_EQ(breakdown.phases.size(), 3u);
}

TEST(Granula, SharesSumToOne) {
  const auto platforms = graph::standard_platforms();
  graph::WorkProfile work;
  work.edges_traversed = 500'000;
  work.iterations = 10;
  const auto b = graph::modeled_breakdown(
      platforms[1], graph::Algorithm::kBfs, work, 5'000, 50'000);
  const double total =
      b.share("startup") + b.share("sync") + b.share("compute");
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Granula, MeasuredBreakdownPositive) {
  Rng rng(8);
  const auto g = graph::erdos_renyi(2'000, 8.0, rng);
  const auto b = graph::measured_breakdown(g.num_vertices(), g.edge_list(),
                                           graph::Algorithm::kPageRank);
  EXPECT_EQ(b.phases.size(), 2u);
  EXPECT_GT(b.total(), 0.0);
  EXPECT_GT(b.share("compute"), 0.0);
}

// Property: every algorithm's work profile grows with graph size.
class WorkGrowsWithSize
    : public ::testing::TestWithParam<graph::Algorithm> {};

TEST_P(WorkGrowsWithSize, MoreEdgesMoreWork) {
  Rng rng(9);
  const auto small = graph::erdos_renyi(200, 4.0, rng);
  const auto large = graph::erdos_renyi(2'000, 8.0, rng);
  const auto w_small = graph::run_algorithm(small, GetParam());
  const auto w_large = graph::run_algorithm(large, GetParam());
  EXPECT_GT(w_large.edges_traversed, w_small.edges_traversed);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, WorkGrowsWithSize,
    ::testing::ValuesIn(graph::all_algorithms()),
    [](const auto& info) { return graph::to_string(info.param); });

// ----------------------------------------------------------------- golden --
// Hand-derived results on the diamond graph (K4 minus the {2,3} edge).

TEST(Golden, BfsDepthsOnDiamond) {
  const auto r = graph::bfs(diamond(), 0);
  EXPECT_EQ(r.depth[0], 0u);
  EXPECT_EQ(r.depth[1], 1u);
  EXPECT_EQ(r.depth[2], 1u);
  EXPECT_EQ(r.depth[3], 1u);
}

TEST(Golden, WccSingleComponentOnDiamond) {
  const auto r = graph::wcc(diamond());
  EXPECT_EQ(r.num_components, 1u);
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(r.component[v], 0u);
}

TEST(Golden, CdlpConvergesToZeroOnDiamond) {
  // Round 1: v0 adopts 1 (smallest neighbor label), everyone else adopts
  // 0; round 2 onward: all 0.
  const auto r = graph::cdlp(diamond(), 10);
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(r.label[v], 0u);
  EXPECT_EQ(r.num_communities, 1u);
}

TEST(Golden, LccCoefficientsOnDiamond) {
  // Triangles {0,1,2} and {0,1,3}: vertices 0/1 close 2 of their 3 pairs
  // (2/3), vertices 2/3 close their single pair (1).
  const auto r = graph::lcc(diamond());
  EXPECT_DOUBLE_EQ(r.coefficient[0], 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(r.coefficient[1], 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(r.coefficient[2], 1.0);
  EXPECT_DOUBLE_EQ(r.coefficient[3], 1.0);
  EXPECT_DOUBLE_EQ(r.mean, (2.0 / 3.0 + 2.0 / 3.0 + 1.0 + 1.0) / 4.0);
}

TEST(Golden, SsspUnitDistancesOnDiamond) {
  const auto r = graph::sssp(diamond(), 0);
  EXPECT_DOUBLE_EQ(r.distance[0], 0.0);
  EXPECT_DOUBLE_EQ(r.distance[1], 1.0);
  EXPECT_DOUBLE_EQ(r.distance[2], 1.0);
  EXPECT_DOUBLE_EQ(r.distance[3], 1.0);
}

TEST(Golden, PageRankTwoCycleIsExactlyHalf) {
  // A 2-cycle is rank-invariant: 0.5 stays 0.5 at every iteration, with
  // no rounding (0.15/2 + 0.85*0.5 == 0.5 exactly in binary).
  const auto g = graph::Graph::from_edges(2, {{0, 1}, {1, 0}});
  const auto r = graph::pagerank(g, 20);
  EXPECT_DOUBLE_EQ(r.rank[0], 0.5);
  EXPECT_DOUBLE_EQ(r.rank[1], 0.5);
}

TEST(Golden, PageRankMatchesNaiveReference) {
  Rng rng(12);
  const auto g = graph::erdos_renyi(400, 6.0, rng);
  const std::size_t n = g.num_vertices();
  const double d = 0.85;
  std::vector<double> rank(n, 1.0 / static_cast<double>(n)), next(n);
  for (int it = 0; it < 15; ++it) {
    double dangling = 0.0;
    for (VertexId v = 0; v < n; ++v)
      if (g.out_degree(v) == 0) dangling += rank[v];
    const double base = (1.0 - d) / static_cast<double>(n) +
                        d * dangling / static_cast<double>(n);
    std::fill(next.begin(), next.end(), base);
    for (VertexId v = 0; v < n; ++v) {
      const auto deg = g.out_degree(v);
      for (VertexId u : g.out(v))
        next[u] += d * rank[v] / static_cast<double>(deg);
    }
    rank.swap(next);
  }
  const auto r = graph::pagerank(g, 15, d);
  for (VertexId v = 0; v < n; ++v) EXPECT_NEAR(r.rank[v], rank[v], 1e-12);
}

// ------------------------------------------------------------ parallelism --
// Kernel results and work profiles must be byte-identical at any thread
// count (the determinism contract CI's TSan job also exercises).

namespace {

std::vector<graph::Graph> determinism_graphs() {
  std::vector<graph::Graph> graphs;
  Rng rng(21);
  graphs.push_back(graph::preferential_attachment(4'000, 6, rng));
  graphs.push_back(graph::grid_2d(50));
  return graphs;
}

void expect_same_work(const graph::WorkProfile& a,
                      const graph::WorkProfile& b) {
  EXPECT_EQ(a.edges_traversed, b.edges_traversed);
  EXPECT_EQ(a.iterations, b.iterations);
}

}  // namespace

TEST(ParallelDeterminism, BfsIdenticalAcrossThreadCounts) {
  for (const auto& g : determinism_graphs()) {
    const auto base = graph::bfs(g, 0, threads(1));
    for (std::uint32_t t : {2u, 8u}) {
      const auto r = graph::bfs(g, 0, threads(t));
      EXPECT_TRUE(r.depth == base.depth);
      expect_same_work(r.work, base.work);
    }
  }
}

TEST(ParallelDeterminism, PageRankIdenticalAcrossThreadCounts) {
  for (const auto& g : determinism_graphs()) {
    const auto base = graph::pagerank(g, 12, 0.85, threads(1));
    for (std::uint32_t t : {2u, 8u}) {
      const auto r = graph::pagerank(g, 12, 0.85, threads(t));
      ASSERT_EQ(r.rank.size(), base.rank.size());
      EXPECT_EQ(std::memcmp(r.rank.data(), base.rank.data(),
                            base.rank.size() * sizeof(double)),
                0);
      expect_same_work(r.work, base.work);
    }
  }
}

TEST(ParallelDeterminism, WccIdenticalAcrossThreadCounts) {
  for (const auto& g : determinism_graphs()) {
    const auto base = graph::wcc(g, threads(1));
    for (std::uint32_t t : {2u, 8u}) {
      const auto r = graph::wcc(g, threads(t));
      EXPECT_TRUE(r.component == base.component);
      EXPECT_EQ(r.num_components, base.num_components);
      expect_same_work(r.work, base.work);
    }
  }
}

TEST(ParallelDeterminism, CdlpIdenticalAcrossThreadCounts) {
  for (const auto& g : determinism_graphs()) {
    const auto base = graph::cdlp(g, 8, threads(1));
    for (std::uint32_t t : {2u, 8u}) {
      const auto r = graph::cdlp(g, 8, threads(t));
      EXPECT_TRUE(r.label == base.label);
      EXPECT_EQ(r.num_communities, base.num_communities);
      expect_same_work(r.work, base.work);
    }
  }
}

TEST(ParallelDeterminism, LccIdenticalAcrossThreadCounts) {
  for (const auto& g : determinism_graphs()) {
    const auto base = graph::lcc(g, threads(1));
    for (std::uint32_t t : {2u, 8u}) {
      const auto r = graph::lcc(g, threads(t));
      ASSERT_EQ(r.coefficient.size(), base.coefficient.size());
      EXPECT_EQ(std::memcmp(r.coefficient.data(), base.coefficient.data(),
                            base.coefficient.size() * sizeof(double)),
                0);
      EXPECT_EQ(r.mean, base.mean);
      expect_same_work(r.work, base.work);
    }
  }
}

TEST(ParallelDeterminism, SsspIdenticalAcrossThreadCounts) {
  Rng rng(22);
  const auto base_graph = graph::preferential_attachment(2'000, 4, rng);
  const auto g = graph::with_random_weights(base_graph, 0.5, 2.0, rng);
  const auto base = graph::sssp(g, 0, threads(1));
  for (std::uint32_t t : {2u, 8u}) {
    const auto r = graph::sssp(g, 0, threads(t));
    EXPECT_EQ(std::memcmp(r.distance.data(), base.distance.data(),
                          base.distance.size() * sizeof(double)),
              0);
    expect_same_work(r.work, base.work);
  }
}

TEST(ParallelDeterminism, PadStudyThreadCountIndependent) {
  Rng rng(23);
  const auto social = graph::preferential_attachment(2'000, 6, rng);
  const std::vector<graph::NamedGraph> datasets = {{"social", &social, 1.0}};
  const auto platforms = graph::standard_platforms();
  const auto serial = graph::run_pad_study(datasets, platforms, 1);
  const auto parallel = graph::run_pad_study(datasets, platforms, 2);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i)
    EXPECT_EQ(serial.cells[i].runtime_s, parallel.cells[i].runtime_s);
  EXPECT_TRUE(serial.winners == parallel.winners);
}

// ----------------------------------------------------- undirected CSR view --

TEST(UndirectedCsr, NeighborsSortedDistinctAndSymmetric) {
  Rng rng(24);
  const auto g = graph::erdos_renyi(500, 6.0, rng);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nb = g.neighbors(v);
    EXPECT_EQ(nb.size(), g.und_degree(v));
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
    EXPECT_EQ(std::adjacent_find(nb.begin(), nb.end()), nb.end());
    for (VertexId u : nb) {
      const auto back = g.neighbors(u);
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), v));
    }
  }
}

TEST(UndirectedCsr, MergesBothDirectionsOnce) {
  // 0->1 and 1->0 are one undirected neighbor relation.
  const auto g = graph::Graph::from_edges(2, {{0, 1}, {1, 0}});
  EXPECT_EQ(g.und_degree(0), 1u);
  EXPECT_EQ(g.und_degree(1), 1u);
}

// -------------------------------------------------------------- generators --

TEST(Generators, ErdosRenyiRealizesRequestedDensity) {
  // The generator redraws rejected pairs, so the kept-edge count matches
  // the request within 2% instead of silently undershooting.
  Rng rng(26);
  const auto g = graph::erdos_renyi(2'000, 8.0, rng);
  const double realized =
      static_cast<double>(g.num_edges()) / g.num_vertices();
  EXPECT_NEAR(realized, 8.0, 0.16);
}

TEST(Generators, ErdosRenyiDenseRequestStillRealized) {
  // Heavy dedup pressure: 50 of 99 possible out-neighbors per vertex.
  Rng rng(27);
  const auto g = graph::erdos_renyi(100, 50.0, rng);
  const double realized =
      static_cast<double>(g.num_edges()) / g.num_vertices();
  EXPECT_NEAR(realized, 50.0, 1.0);
}

TEST(Generators, ErdosRenyiOverfullRequestClampsToCompleteGraph) {
  Rng rng(28);
  const auto g = graph::erdos_renyi(10, 100.0, rng);
  EXPECT_EQ(g.num_edges(), 90u);  // n * (n - 1)
}

// ----------------------------------------------------------- observability --

TEST(Obs, KernelsEmitSpansAndCounters) {
  Rng rng(29);
  const auto g = graph::erdos_renyi(500, 4.0, rng);
  atlarge::obs::Observability plane;
  graph::KernelOptions opts;
  opts.obs = &plane;
  const auto r = graph::pagerank(g, 5, 0.85, opts);

  std::size_t iteration_spans = 0;
  for (const auto& rec : plane.tracer.records()) {
    if (rec.kind == atlarge::obs::SpanKind::kBegin &&
        std::strcmp(rec.name, "pr.iteration") == 0)
      ++iteration_spans;
  }
  EXPECT_EQ(iteration_spans, 5u);
  EXPECT_EQ(plane.metrics.counter("graph.edges_traversed").value(),
            r.work.edges_traversed);
  EXPECT_EQ(plane.metrics.counter("graph.iterations").value(),
            r.work.iterations);
}

TEST(Obs, BfsLevelsTracedPerIteration) {
  atlarge::obs::Observability plane;
  graph::KernelOptions opts;
  opts.obs = &plane;
  const auto r = graph::bfs(graph::grid_2d(8), 0, opts);
  std::size_t levels = 0;
  for (const auto& rec : plane.tracer.records()) {
    if (rec.kind == atlarge::obs::SpanKind::kBegin &&
        std::strcmp(rec.name, "bfs.level") == 0)
      ++levels;
  }
  EXPECT_EQ(levels, r.work.iterations);
}

TEST(Granula, MeasuredBreakdownWithPlaneIncludesKernelPhases) {
  Rng rng(30);
  const auto g = graph::erdos_renyi(500, 4.0, rng);
  atlarge::obs::Observability plane;
  graph::KernelOptions opts;
  opts.obs = &plane;
  const auto b = graph::measured_breakdown(g.num_vertices(), g.edge_list(),
                                           graph::Algorithm::kPageRank, opts);
  EXPECT_GT(b.share("compute"), 0.0);
  bool has_iteration_phase = false;
  for (const auto& p : b.phases)
    has_iteration_phase |= p.name == std::string("pr.iteration");
  EXPECT_TRUE(has_iteration_phase);
}

TEST(Granula, BreakdownFromTraceAggregatesSpansByName) {
  atlarge::obs::Tracer tracer(16);
  tracer.begin("load", "graph");
  tracer.end("load", "graph");
  tracer.begin("compute", "graph");
  tracer.instant("mark", "graph");  // instants contribute nothing
  tracer.end("compute", "graph");
  tracer.begin("compute", "graph");  // second occurrence accumulates
  tracer.end("compute", "graph");

  const auto b = graph::breakdown_from_trace(tracer, "test");
  EXPECT_EQ(b.label, "test");
  ASSERT_EQ(b.phases.size(), 2u);  // first-seen order, instants ignored
  EXPECT_EQ(b.phases[0].name, "load");
  EXPECT_EQ(b.phases[1].name, "compute");
  EXPECT_GE(b.phases[0].seconds, 0.0);
  EXPECT_GE(b.phases[1].seconds, 0.0);
  EXPECT_NEAR(b.share("load") + b.share("compute"), 1.0, 1e-9);
}
