// Routing topologies: the link-level structure under the network model.
//
// The flat model (net/network.hpp's original switched-Ethernet path)
// sees the fabric as one backplane; that is right for the paper's
// 10-node cluster and wrong at 256+ ranks, where *which* links a
// message crosses decides how much bandwidth it gets.  A Topology maps
// every src -> dst transfer onto a sequence of directed links, in the
// style of SimGrid's FatTreeZone / TorusZone routing zones:
//
//   * kFlat     — no routed links; Network keeps its original
//                 NIC/backplane reservation model, byte for byte.
//   * kFatTree  — a leaf-spine tree described level by level: `down[l]`
//                 children per level-(l+1) switch, `up[l]` uplinks per
//                 level-l entity (hosts are level 0), `parallel[l]`
//                 cables aggregated into each uplink trunk.  Routing
//                 climbs to the lowest common subtree, then descends;
//                 among redundant uplinks a flow picks trunk
//                 (src + dst) % up[l], so the choice is deterministic
//                 and symmetric in the endpoints.
//   * kTorus    — a k-ary n-cube over `dims`; dimension-ordered routing
//                 takes the shorter wrap direction (ties go positive).
//                 Every node contributes one directed link per
//                 direction per dimension.
//
// Links are directed and identified by dense LinkId indices; the
// contention model in Network keeps per-link flow schedules against
// them (see docs/NETWORK.md).  Hop latency is charged per switch
// traversed, which for both shapes equals path links - 1.
//
// Determinism contract: route() is a pure function of (src, dst) — no
// RNG, no load-dependent choices — so the same transfer call sequence
// always drives the contention state through the same link schedules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace gearsim::net {

enum class TopologyKind { kFlat, kFatTree, kTorus };

[[nodiscard]] const char* to_string(TopologyKind kind);

/// Topology description carried inside NetworkParams.  The default is
/// the flat backplane model — every pre-topology configuration keys and
/// simulates exactly as before.
struct TopologyParams {
  TopologyKind kind = TopologyKind::kFlat;
  /// Fat tree, leaf level first: children per switch (`down`), uplink
  /// trunks per entity (`up`), parallel cables aggregated per trunk
  /// (`parallel`).  All three must have one entry per level; hosts =
  /// product of `down`.
  std::vector<int> down;
  std::vector<int> up;
  std::vector<int> parallel;
  /// Torus dimensions; hosts = product of `dims`.
  std::vector<int> dims;
  /// Latency charged per switch traversed (path links - 1), on top of
  /// NetworkParams::latency.
  Seconds hop_latency = microseconds(1.0);
  /// Per-cable trunk bandwidth in bytes/second; 0 means "use
  /// NetworkParams::link_bandwidth" (host NICs always use that).
  double trunk_bandwidth = 0.0;

  [[nodiscard]] bool flat() const { return kind == TopologyKind::kFlat; }
};

/// Parse a topology spec string (the CLI's --topology and the serve
/// protocol's "topology" field):
///
///   flat
///   fat-tree:<down,...>:<up,...>:<parallel,...>[:hop_us=X][:trunk_bw=Y]
///   torus:<d0>x<d1>x...[:hop_us=X][:trunk_bw=Y]
///
/// e.g. "fat-tree:16,16:1,2:1,4" (256 hosts, two levels) or
/// "torus:8x8x4:hop_us=0.5".  Throws ContractError on malformed specs.
[[nodiscard]] TopologyParams parse_topology(const std::string& spec);

/// Canonical spec string; round-trips through parse_topology.
[[nodiscard]] std::string to_spec(const TopologyParams& params);

/// A directed link index, dense in [0, link_count).
using LinkId = std::uint32_t;

class Topology {
 public:
  virtual ~Topology() = default;

  [[nodiscard]] virtual std::size_t link_count() const = 0;
  /// Host slots the shape provides (>= the node count it was made for).
  [[nodiscard]] virtual std::size_t num_hosts() const = 0;
  /// Longest path route() writes: 2L links for a fat tree of L levels,
  /// the sum of half its dimensions for a torus.
  [[nodiscard]] virtual std::size_t max_path_links() const = 0;
  /// Capacity of one directed link in bytes/second.
  [[nodiscard]] virtual double link_capacity(LinkId link) const = 0;
  /// Write the directed link path for one src -> dst transfer into
  /// path[0, n) and return n (at most max_path_links()).
  virtual std::size_t route(std::size_t src, std::size_t dst,
                            LinkId* path) const = 0;

  /// Build the routing structure for `num_nodes` hosts.  `nic_bandwidth`
  /// is NetworkParams::link_bandwidth (host access links); trunk links
  /// use params.trunk_bandwidth or fall back to it.  Returns nullptr
  /// for the flat topology (Network keeps its reservation model).
  /// Throws ContractError when the shape cannot seat `num_nodes`.
  static std::unique_ptr<Topology> make(const TopologyParams& params,
                                        std::size_t num_nodes,
                                        double nic_bandwidth);
};

}  // namespace gearsim::net
