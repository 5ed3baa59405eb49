// Table 8 / Section 6.5: the Graphalytics ecosystem.
//  [105] the PAD law: performance depends on the Platform x Algorithm x
//        Dataset interaction — no platform dominates;
//  [106] HPAD: heterogeneous hardware (GPU) joins the interaction;
//  [100] Granula: fine-grained phase breakdowns.
// graph_bench times the native kernels themselves (BENCH_graph.json).

#include <cstdio>
#include <map>
#include <vector>

#include "atlarge/graph/algorithms.hpp"
#include "atlarge/graph/granula.hpp"
#include "atlarge/graph/graph.hpp"
#include "atlarge/graph/pad.hpp"
#include "bench_util.hpp"

using namespace atlarge;

namespace {

void pad_study(std::uint32_t threads) {
  bench::header("[105]+[106] The PAD/HPAD law");
  stats::Rng rng(1);
  const auto social = graph::preferential_attachment(20'000, 8, rng);
  const auto random = graph::erdos_renyi(10'000, 16.0, rng);
  const auto grid = graph::grid_2d(100);
  // Dataset sizes span the Graphalytics range via work-profile
  // extrapolation (NamedGraph::scale): from laptop-size graphs to the
  // billion-edge datasets where platform capacity walls bite.
  const std::vector<graph::NamedGraph> datasets = {
      {"social-S", &social, 1.0},      // ~160k edges
      {"social-L", &social, 500.0},    // ~80M edges
      {"social-XL", &social, 3'000.0}, // ~480M edges
      {"random-L", &random, 500.0},    // ~80M edges
      {"grid-L", &grid, 500.0},        // ~10M edges, high diameter
  };
  const auto platforms = graph::standard_platforms();
  const auto study = graph::run_pad_study(datasets, platforms, threads);

  // Matrix: rows = algorithm x dataset, columns = platforms.
  std::printf("\npredicted runtime (s); * marks the per-row winner\n");
  std::printf("%-22s", "A x D \\ P");
  for (const auto& p : platforms) std::printf(" %14s", p.name.c_str());
  std::printf("\n");
  for (std::size_t row = 0; row < study.winners.size(); ++row) {
    const auto& [label, winner] = study.winners[row];
    std::printf("%-22s", label.c_str());
    for (std::size_t col = 0; col < platforms.size(); ++col) {
      const auto& cell = study.cells[row * platforms.size() + col];
      std::printf(" %12.2f%s", cell.runtime_s,
                  cell.platform == winner ? "*" : " ");
    }
    std::printf("\n");
  }

  std::map<std::string, int> wins;
  for (const auto& [label, winner] : study.winners) ++wins[winner];
  std::printf("\nwins per platform:");
  for (const auto& [name, count] : wins)
    std::printf("  %s=%d", name.c_str(), count);
  std::printf("\ndistinct winners: %zu => the PAD interaction law %s\n",
              study.distinct_winners,
              study.distinct_winners > 1 ? "HOLDS" : "does NOT hold");
}

void granula_study(std::uint32_t threads) {
  bench::header("[100] Granula-style phase breakdown");
  stats::Rng rng(2);
  const auto g = graph::preferential_attachment(20'000, 8, rng);
  const auto platforms = graph::standard_platforms();
  graph::KernelOptions opts;
  opts.threads = threads;
  const auto work = graph::run_algorithm(g, graph::Algorithm::kPageRank, opts);
  std::printf("PageRank on social-20k, per-platform modeled breakdown:\n");
  std::printf("%-14s %10s %10s %10s %10s\n", "platform", "startup%",
              "sync%", "compute%", "total(s)");
  for (const auto& p : platforms) {
    const auto b = graph::modeled_breakdown(p, graph::Algorithm::kPageRank,
                                            work, g.num_vertices(),
                                            g.num_edges());
    std::printf("%-14s %9.1f%% %9.1f%% %9.1f%% %10.2f\n", p.name.c_str(),
                100.0 * b.share("startup"), 100.0 * b.share("sync"),
                100.0 * b.share("compute"), b.total());
  }
  const auto measured = graph::measured_breakdown(
      g.num_vertices(), g.edge_list(), graph::Algorithm::kPageRank, opts);
  std::printf("measured native run: load %.3fs, compute %.3fs\n",
              measured.phases[0].seconds, measured.phases[1].seconds);
}

}  // namespace

int main(int argc, char** argv) {
  // --threads=N parallelizes the kernel runs behind the studies (results
  // are thread-count independent; 0 runs one lane).
  const auto opts = bench::parse_flags(argc, argv, {{0, bench::kThreads}});
  const auto threads = static_cast<std::uint32_t>(opts.threads.value_or(1));
  pad_study(threads);
  granula_study(threads);
  return 0;
}
