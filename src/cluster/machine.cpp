#include "atlarge/cluster/machine.hpp"

namespace atlarge::cluster {

std::uint32_t Cluster::total_cores() const noexcept {
  std::uint32_t total = 0;
  for (const auto& m : machines) total += m.cores;
  return total;
}

std::string to_string(EnvironmentType t) {
  switch (t) {
    case EnvironmentType::kOwnCluster: return "CL";
    case EnvironmentType::kGrid: return "G";
    case EnvironmentType::kPublicCloud: return "CD";
    case EnvironmentType::kMultiCluster: return "MCD";
    case EnvironmentType::kGeoDistributed: return "GDC";
  }
  return "?";
}

std::uint32_t Environment::total_cores() const noexcept {
  std::uint32_t total = 0;
  for (const auto& c : clusters) total += c.total_cores();
  return total;
}

std::size_t Environment::total_machines() const noexcept {
  std::size_t total = 0;
  for (const auto& c : clusters) total += c.machines.size();
  return total;
}

std::vector<Machine> Environment::all_machines() const {
  std::vector<Machine> out;
  out.reserve(total_machines());
  MachineId next_id = 0;
  for (std::size_t ci = 0; ci < clusters.size(); ++ci) {
    for (Machine m : clusters[ci].machines) {
      m.id = next_id++;
      m.cluster = static_cast<std::uint32_t>(ci);
      out.push_back(m);
    }
  }
  return out;
}

namespace {

Cluster homogeneous(std::string name, std::size_t machines,
                    std::uint32_t cores, double speed) {
  Cluster c;
  c.name = std::move(name);
  c.machines.reserve(machines);
  for (std::size_t i = 0; i < machines; ++i) {
    Machine m;
    m.id = static_cast<MachineId>(i);
    m.cores = cores;
    m.speed = speed;
    c.machines.push_back(m);
  }
  return c;
}

}  // namespace

Environment make_homogeneous_cluster(std::string name, std::size_t machines,
                                     std::uint32_t cores_per_machine,
                                     double speed) {
  Environment env;
  env.name = std::move(name);
  env.type = EnvironmentType::kOwnCluster;
  env.clusters.push_back(
      homogeneous("c0", machines, cores_per_machine, speed));
  return env;
}

Environment make_grid(std::string name, std::size_t sites,
                      std::size_t machines_per_site,
                      std::uint32_t cores_per_machine) {
  Environment env;
  env.name = std::move(name);
  env.type = EnvironmentType::kGrid;
  for (std::size_t s = 0; s < sites; ++s) {
    // Grids are heterogeneous across sites: speeds alternate between
    // generations (1.0x, 0.75x, 1.25x, ...).
    const double speed = 1.0 + 0.25 * ((s % 3 == 1)   ? -1.0
                                       : (s % 3 == 2) ? 1.0
                                                      : 0.0);
    env.clusters.push_back(homogeneous("site" + std::to_string(s),
                                       machines_per_site, cores_per_machine,
                                       speed));
  }
  env.inter_cluster_latency = 0.05;
  return env;
}

Environment make_cloud(std::string name, std::size_t max_machines,
                       std::uint32_t cores_per_machine,
                       double provisioning_delay) {
  Environment env;
  env.name = std::move(name);
  env.type = EnvironmentType::kPublicCloud;
  env.clusters.push_back(
      homogeneous("region0", max_machines, cores_per_machine, 1.0));
  env.provisioning_delay = provisioning_delay;
  return env;
}

Environment make_multi_cluster(std::string name, std::size_t clusters,
                               std::size_t machines_per_cluster,
                               std::uint32_t cores_per_machine) {
  Environment env;
  env.name = std::move(name);
  env.type = EnvironmentType::kMultiCluster;
  for (std::size_t c = 0; c < clusters; ++c) {
    std::string cluster_name = "c";
    cluster_name += std::to_string(c);
    env.clusters.push_back(homogeneous(std::move(cluster_name),
                                       machines_per_cluster,
                                       cores_per_machine, 1.0));
  }
  return env;
}

Environment make_geo_distributed(std::string name, std::size_t datacenters,
                                 std::size_t machines_per_dc,
                                 std::uint32_t cores_per_machine,
                                 double inter_dc_latency) {
  Environment env = make_multi_cluster(std::move(name), datacenters,
                                       machines_per_dc, cores_per_machine);
  env.type = EnvironmentType::kGeoDistributed;
  env.inter_cluster_latency = inter_dc_latency;
  return env;
}

}  // namespace atlarge::cluster
