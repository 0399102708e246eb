#include "cluster/config.hpp"

#include "util/assert.hpp"

namespace gearsim::cluster {

ClusterConfig athlon_cluster() {
  ClusterConfig c;
  c.name = "athlon";
  c.max_nodes = 10;
  // Defaults in CpuParams/PowerParams/NetworkParams are the Athlon-64
  // calibration (DESIGN.md §5); this function is the single named source.
  return c;
}

ClusterConfig sun_cluster() {
  ClusterConfig c;
  c.name = "sun";
  c.max_nodes = 32;
  // Fixed-gear UltraSPARC-class node: slower clock, similar memory system.
  c.gears = cpu::fixed_gear(megahertz(1200), volts(1.6));
  c.cpu.upc_eff = 0.6;
  c.cpu.mem_latency = nanoseconds(60.0);
  c.power.base = watts(85.0);
  c.power.cpu_static = watts(18.0);
  c.power.cpu_dynamic = watts(45.0);
  c.network = net::sun_cluster_network();
  return c;
}

ClusterConfig xeon_cluster() {
  ClusterConfig c;
  c.name = "xeon";
  c.max_nodes = 64;
  c.gears = cpu::fixed_gear(megahertz(2400), volts(1.5));
  c.cpu.upc_eff = 0.55;
  c.cpu.mem_latency = nanoseconds(55.0);
  c.power.base = watts(95.0);
  c.power.cpu_static = watts(25.0);
  c.power.cpu_dynamic = watts(60.0);
  c.network = net::shared_xeon_network();
  return c;
}

ClusterConfig cluster_by_name(const std::string& name) {
  if (name == "athlon") return athlon_cluster();
  if (name == "sun") return sun_cluster();
  if (name == "xeon") return xeon_cluster();
  throw ContractError("unknown cluster: " + name +
                      " (expected athlon, sun, or xeon)");
}

void install_topology(ClusterConfig* config,
                      const net::TopologyParams& topology) {
  config->network.topology = topology;
  if (topology.flat()) return;
  // Validate the shape now (a bad spec should fail the command/query,
  // not the first simulation) and learn its host capacity.
  const auto shape =
      net::Topology::make(topology, 1, config->network.link_bandwidth);
  const auto seats = static_cast<int>(shape->num_hosts());
  if (seats > config->max_nodes) config->max_nodes = seats;
}

}  // namespace gearsim::cluster
