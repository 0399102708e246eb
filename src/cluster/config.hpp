// Cluster configurations: the machines of the paper.
//
//  * athlon_cluster(): the 10-node power-scalable AMD Athlon-64 cluster —
//    six gears (2000..800 MHz), 1 GB RAM, 100 Mb/s Ethernet, measured
//    whole-system power 140-150 W at the top gear with the CPU at 45-55%.
//  * sun_cluster(): the 32-node fixed-frequency Sun cluster used to
//    cross-validate the scalability fits.
//  * xeon_cluster(): the 64-node Xeon cluster whose shared network made
//    results unreliable (kept for the same negative result).
#pragma once

#include <cstdint>
#include <string>

#include "cpu/cpu_model.hpp"
#include "cpu/power_model.hpp"
#include "mpi/types.hpp"
#include "net/network.hpp"
#include "power/multimeter.hpp"

namespace gearsim::cluster {

struct ClusterConfig {
  std::string name = "athlon";
  int max_nodes = 10;
  cpu::CpuParams cpu{};
  cpu::GearTable gears = cpu::athlon64_gears();
  cpu::PowerParams power{};
  net::NetworkParams network = net::ethernet_100mbps();
  mpi::MpiParams mpi{};
  /// Half-width of the per-rank compute-speed jitter (fraction): rank r
  /// executes its blocks at (1 + u_r) cost, u_r ~ U(-x, +x), fixed per
  /// run.  Models the load imbalance real traces show.
  double load_imbalance = 0.01;
  /// Cost of a DVFS transition (PowerNow!-class hardware re-locks the
  /// PLL and steps the voltage); paid on every mid-run set_gear.
  Seconds gear_switch_latency = microseconds(100.0);
  /// Also meter every node with the paper's sampling rig (multimeters at
  /// the wall outlet, integrated by a separate computer) and report the
  /// integral in RunResult::sampled_energy.  Exact accounting is always
  /// on; this adds the physical measurement path for cross-validation.
  bool sample_power = false;
  power::MultimeterConfig multimeter{};
  std::uint64_t seed = 42;
};

/// The paper's measured machine.
ClusterConfig athlon_cluster();
/// The 32-node validation machine (not power-scalable).
ClusterConfig sun_cluster();
/// The discarded shared-network machine.
ClusterConfig xeon_cluster();

/// The preset named `name` ("athlon", "sun" or "xeon"); throws
/// ContractError on any other name.  The CLI's --cluster and the serve
/// protocol's "cluster" field both go through here, so they accept the
/// same names.
ClusterConfig cluster_by_name(const std::string& name);

/// Install a routing topology (see net/topology.hpp) on a preset:
/// sets network.topology and raises max_nodes to the shape's host
/// capacity when it seats more than the preset allows, so e.g. a
/// 256-host fat-tree on the athlon preset can actually run 256 ranks.
/// The CLI's --topology and the serve protocol's "topology" field both
/// go through here, so a served query and the local command build the
/// same canonical config (and thus the same cache keys).
void install_topology(ClusterConfig* config,
                      const net::TopologyParams& topology);

}  // namespace gearsim::cluster
