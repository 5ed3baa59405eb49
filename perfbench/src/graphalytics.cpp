// graphalytics: the six Graphalytics kernels on the three Table 8 dataset
// families — preferential-attachment social, Erdos-Renyi random and a 2-D
// grid — at KernelOptions::threads = `threads` (2 by default). The only
// workload where the graph module and ThreadPool::parallel_for do the
// work. Every dataset's CSR is larger than a 2 MiB per-core L2, and no
// kernel x dataset call takes more than about a third of a pass.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "atlarge/graph/algorithms.hpp"
#include "atlarge/graph/graph.hpp"
#include "atlarge/stats/rng.hpp"
#include "bench.hpp"

using namespace atlarge;

namespace perfbench {
namespace {

struct Dataset {
  std::string name;
  graph::Graph g;         // unweighted: BFS, PR, WCC, CDLP, LCC
  graph::Graph weighted;  // SSSP
  graph::VertexId source = 0;
  double build_s = 0.0;
};

template <typename T>
std::string bytes_digest(const std::vector<T>& v) {
  std::string raw(v.size() * sizeof(T), '\0');
  if (!v.empty()) std::memcpy(raw.data(), v.data(), raw.size());
  return digest(raw);
}

/// BFS/SSSP source: the first or the last vertex, whichever reaches more
/// vertices. Edges point from newer to older vertices on the
/// preferential-attachment graph, so vertex 0 reaches almost nothing there
/// while the newest vertex reaches the giant component; on the grid, edges
/// point right and down, so only vertex 0 reaches everything.
graph::VertexId pick_source(const graph::Graph& g) {
  const auto reach = [&](graph::VertexId s) {
    const auto depth = graph::bfs(g, s).depth;
    return std::count_if(depth.begin(), depth.end(),
                         [](auto d) { return d != graph::kUnreachable; });
  };
  const graph::VertexId last = g.num_vertices() - 1;
  return reach(last) > reach(0) ? last : 0;
}

struct Result {
  std::string text;
  bool ok = true;
  std::uint64_t edges = 0;
};

/// Runs one kernel call, timed alone into `dt` (and operation `op`),
/// then checks its output against the kernel's invariants.
Result run_kernel(graph::Algorithm a, const Dataset& d,
                  const graph::KernelOptions& opts, Context& ctx,
                  SpanLog& spans, const std::string& op, double& dt) {
  const auto& g = d.g;
  const graph::VertexId n = g.num_vertices();
  const auto timed = [&](auto&& call) {
    OpTimer t(ctx, spans, op);
    auto out = call();
    dt = t.stop();
    return out;
  };
  Result r;
  switch (a) {
    case graph::Algorithm::kBfs: {
      const auto out = timed([&] { return graph::bfs(g, d.source, opts); });
      r.edges = out.work.edges_traversed;
      std::size_t reached = 0;
      bool ok = out.depth.size() == n && out.depth[d.source] == 0;
      for (graph::VertexId u = 0; ok && u < n; ++u) {
        if (out.depth[u] == graph::kUnreachable) continue;
        ++reached;
        for (auto v : g.out(u)) ok = ok && out.depth[v] <= out.depth[u] + 1;
      }
      r.ok = ok;
      r.text = "reached=" + std::to_string(reached) +
               " depth=" + bytes_digest(out.depth);
      break;
    }
    case graph::Algorithm::kPageRank: {
      const auto out =
          timed([&] { return graph::pagerank(g, 20, 0.85, opts); });
      r.edges = out.work.edges_traversed;
      double sum = 0.0;
      bool ok = out.rank.size() == n;
      for (double x : out.rank) {
        ok = ok && std::isfinite(x) && x >= 0.0;
        sum += x;
      }
      r.ok = ok && sum > 0.0 && sum <= 1.0 + 1e-9;
      r.text = "rank=" + bytes_digest(out.rank);
      break;
    }
    case graph::Algorithm::kWcc: {
      const auto out = timed([&] { return graph::wcc(g, opts); });
      r.edges = out.work.edges_traversed;
      bool ok = out.component.size() == n;
      std::vector<graph::VertexId> reps;
      for (graph::VertexId u = 0; ok && u < n; ++u) {
        if (out.component[u] == u) reps.push_back(u);
        for (auto v : g.out(u)) ok = ok && out.component[v] == out.component[u];
      }
      r.ok = ok && reps.size() == out.num_components;
      r.text = "components=" + std::to_string(out.num_components) +
               " component=" + bytes_digest(out.component);
      break;
    }
    case graph::Algorithm::kCdlp: {
      const auto out = timed([&] { return graph::cdlp(g, 10, opts); });
      r.edges = out.work.edges_traversed;
      bool ok = out.label.size() == n;
      for (auto l : out.label) ok = ok && l < n;
      r.ok = ok;
      r.text = "communities=" + std::to_string(out.num_communities) +
               " label=" + bytes_digest(out.label);
      break;
    }
    case graph::Algorithm::kLcc: {
      const auto out = timed([&] { return graph::lcc(g, opts); });
      r.edges = out.work.edges_traversed;
      bool ok = out.coefficient.size() == n;
      for (double c : out.coefficient) ok = ok && c >= 0.0 && c <= 1.0;
      r.ok = ok && out.mean >= 0.0 && out.mean <= 1.0;
      r.text = "mean=" + exact(out.mean) +
               " coefficient=" + bytes_digest(out.coefficient);
      break;
    }
    case graph::Algorithm::kSssp: {
      const auto& w = d.weighted;
      const auto out = timed([&] { return graph::sssp(w, d.source, opts); });
      r.edges = out.work.edges_traversed;
      bool ok = out.distance.size() == n && out.distance[d.source] == 0.0;
      std::size_t reached = 0;
      for (graph::VertexId u = 0; ok && u < n; ++u) {
        const double du = out.distance[u];
        if (!std::isfinite(du)) continue;
        ++reached;
        const auto heads = w.out(u);
        for (std::size_t i = 0; i < heads.size(); ++i)
          ok = ok && out.distance[heads[i]] <=
                         du + w.out_weight(u, i) + 1e-9 * (1.0 + du);
      }
      r.ok = ok;
      r.text = "reached=" + std::to_string(reached) +
               " distance=" + bytes_digest(out.distance);
      break;
    }
  }
  r.text += " edges=" + std::to_string(r.edges);
  return r;
}

std::vector<Dataset> make_datasets(const Options& o) {
  std::vector<Dataset> ds;
  const auto add = [&](const std::string& name, auto build) {
    const double t0 = wall_now();
    stats::Rng rng(derive_seed(o.seed, 8 + ds.size()));
    Dataset d;
    d.name = name;
    d.g = build(rng);
    d.weighted = graph::with_random_weights(d.g, 1.0, 10.0, rng);
    d.source = pick_source(d.g);
    d.build_s = wall_now() - t0;
    ds.push_back(std::move(d));
  };
  const bool r = o.reduced;
  add("social", [&](stats::Rng& rng) {
    return graph::preferential_attachment(r ? 4'000 : 200'000, 8, rng);
  });
  add("random", [&](stats::Rng& rng) {
    return graph::erdos_renyi(r ? 4'000 : 200'000, 8.0, rng);
  });
  add("grid", [&](stats::Rng&) { return graph::grid_2d(r ? 60 : 224); });
  return ds;
}

}  // namespace

void run_graphalytics(Context& ctx) {
  const Options& o = ctx.options;
  std::vector<Dataset> ds;
  const double setup_s =
      timed_setup(o.reduced ? 1 : 3, [&] { ds = make_datasets(o); });

  graph::KernelOptions opts;
  opts.threads = static_cast<std::uint32_t>(o.threads);
  // Ledgers of the last traced pass.
  std::map<std::string, double> secs;
  std::map<std::string, std::uint64_t> edges;
  double kernel_s = 0.0, items = 0.0;
  const PassTimes times =
      run_passes(ctx, passes_for(o, 2.0), [&](SpanLog& spans) {
        const bool keep = spans.enabled();
        if (keep) kernel_s = items = 0.0;
        Timed pass(spans, "graph.pass");
        for (const auto& d : ds) {
          for (const auto a : graph::all_algorithms()) {
            const std::string key = graph::to_string(a) + "." + d.name;
            try {
              double dt = 0.0;
              const Result r =
                  run_kernel(a, d, opts, ctx, spans, "graph." + key, dt);
              ctx.checks.output("graph." + key, r.text, r.ok);
              if (!keep) continue;
              secs[key] = dt;
              edges[key] = r.edges;
              kernel_s += dt;
              items += static_cast<double>(d.g.num_vertices()) +
                       static_cast<double>(d.g.num_edges());
            } catch (const std::exception& e) {
              ctx.checks.threw("graph." + key, e);
            }
          }
        }
      });
  if (!o.trace) return set_timings(ctx, setup_s);

  auto& m = ctx.layers;
  for (const auto& d : ds) {
    m.set("graph.build." + d.name + ".s", d.build_s, "s");
    for (const auto a : graph::all_algorithms()) {
      const std::string key = graph::to_string(a) + "." + d.name;
      m.set("graph." + key + ".s", secs[key], "s");
      m.set("graph." + key + ".edges", static_cast<double>(edges[key]),
            "count");
    }
  }
  m.set("graph.evps", kernel_s > 0 ? items / kernel_s : 0.0, "1/s");
  m.set("bench.trace_overhead", times.trace_overhead(), "1");
}

}  // namespace perfbench
