// Unit tests for routing topologies and the fair-share contention model:
// spec parsing, fat-tree/torus hop counts and path symmetry, per-link
// bandwidth sharing, and cluster/cache wiring.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "cluster/config.hpp"
#include "exec/cache_key.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "util/assert.hpp"

namespace gearsim::net {
namespace {

NetworkParams quiet() {
  NetworkParams p;
  p.latency = microseconds(100.0);
  p.link_bandwidth = 10e6;  // 10 MB/s for round numbers.
  p.backplane_bandwidth = 80e6;
  return p;
}

NetworkParams quiet_with(const std::string& spec) {
  NetworkParams p = quiet();
  p.topology = parse_topology(spec);
  return p;
}

std::vector<LinkId> path_of(const Topology& topo, std::size_t src,
                            std::size_t dst) {
  std::vector<LinkId> path(topo.max_path_links());
  path.resize(topo.route(src, dst, path.data()));
  return path;
}

// ---------------------------------------------------------------------------
// Spec grammar.

TEST(TopologySpec, FlatParsesAndRendersCanonically) {
  const TopologyParams p = parse_topology("flat");
  EXPECT_TRUE(p.flat());
  EXPECT_EQ(to_spec(p), "flat");
  EXPECT_EQ(to_spec(TopologyParams{}), "flat");
}

TEST(TopologySpec, FatTreeRoundTrips) {
  const TopologyParams p = parse_topology("fat-tree:16,16:1,2:1,4");
  EXPECT_EQ(p.kind, TopologyKind::kFatTree);
  EXPECT_EQ(p.down, (std::vector<int>{16, 16}));
  EXPECT_EQ(p.up, (std::vector<int>{1, 2}));
  EXPECT_EQ(p.parallel, (std::vector<int>{1, 4}));
  // The canonical spec always pins hop_us, and parses back to itself.
  const std::string canon = to_spec(p);
  EXPECT_EQ(canon, "fat-tree:16,16:1,2:1,4:hop_us=1");
  EXPECT_EQ(to_spec(parse_topology(canon)), canon);
}

TEST(TopologySpec, TorusRoundTripsWithOptions) {
  const TopologyParams p = parse_topology("torus:8x8x4:hop_us=0.5");
  EXPECT_EQ(p.kind, TopologyKind::kTorus);
  EXPECT_EQ(p.dims, (std::vector<int>{8, 8, 4}));
  EXPECT_NEAR(p.hop_latency.value(), 0.5e-6, 1e-15);
  const std::string canon = to_spec(p);
  EXPECT_EQ(canon, "torus:8x8x4:hop_us=0.5");
  EXPECT_EQ(to_spec(parse_topology(canon)), canon);
}

TEST(TopologySpec, TrunkBandwidthRoundTrips) {
  const std::string canon =
      to_spec(parse_topology("fat-tree:4,4:1,1:1,1:trunk_bw=20000000"));
  const TopologyParams p = parse_topology(canon);
  EXPECT_EQ(p.trunk_bandwidth, 20000000.0);
  EXPECT_EQ(to_spec(p), canon);
}

TEST(TopologySpec, MalformedSpecsThrow) {
  EXPECT_THROW(parse_topology("ring:4"), ContractError);
  EXPECT_THROW(parse_topology("flat:3"), ContractError);
  EXPECT_THROW(parse_topology("fat-tree:2,2"), ContractError);
  EXPECT_THROW(parse_topology("fat-tree:2,2:1:1,1"), ContractError);
  EXPECT_THROW(parse_topology("fat-tree:2,0:1,1:1,1"), ContractError);
  EXPECT_THROW(parse_topology("torus:"), ContractError);
  EXPECT_THROW(parse_topology("torus:0x4"), ContractError);
  EXPECT_THROW(parse_topology("torus:4x4:bogus=1"), ContractError);
  EXPECT_THROW(parse_topology("torus:4x4:hop_us=-1"), ContractError);
  EXPECT_THROW(parse_topology("torus:4x4:hop_us"), ContractError);
}

TEST(TopologySpec, MakeRejectsShapesSmallerThanTheCluster) {
  EXPECT_THROW(Topology::make(parse_topology("fat-tree:2:1:1"), 4, 10e6),
               ContractError);
  EXPECT_THROW(Topology::make(parse_topology("torus:2x2"), 8, 10e6),
               ContractError);
  EXPECT_EQ(Topology::make(parse_topology("flat"), 4, 10e6), nullptr);
}

TEST(TopologySpec, MaxPathLinksIsTheLongestRoute) {
  // A ring walks the shorter way round: at most half its hosts.
  const auto ring = Topology::make(parse_topology("torus:130"), 130, 10e6);
  EXPECT_EQ(ring->max_path_links(), 65u);
  std::size_t longest = 0;
  for (std::size_t dst = 0; dst < 130; ++dst) {
    longest = std::max(longest, path_of(*ring, 0, dst).size());
  }
  EXPECT_EQ(longest, 65u);
  // A torus sums its half-dimensions; 0 -> (64, 4) walks all of them.
  const auto torus = Topology::make(parse_topology("torus:128x8"), 1024, 10e6);
  EXPECT_EQ(torus->max_path_links(), 68u);
  EXPECT_EQ(path_of(*torus, 0, 64 + 4 * 128).size(), 68u);
  // A fat tree of L levels climbs and descends at most L links each way.
  const auto tree =
      Topology::make(parse_topology("fat-tree:4,4,4:1,2,2:1,1,1"), 64, 10e6);
  EXPECT_EQ(tree->max_path_links(), 6u);
  EXPECT_EQ(path_of(*tree, 0, 63).size(), 6u);
  // The network routes the longest ring path end to end: 1 MB at
  // 10 MB/s, 100 us wire and 64 hops of 1 us.
  Network net(quiet_with("torus:130"), 130);
  EXPECT_NEAR(net.transfer(0, 65, 1'000'000, seconds(0.0)).value(), 0.100164,
              1e-9);
}

// ---------------------------------------------------------------------------
// Routing: hop counts, symmetry, determinism.

TEST(TopologyRouting, FatTreeHopCounts) {
  // 4 hosts under two 2-ary levels: siblings cross one switch (2 links),
  // cousins climb to the root and back down (4 links).
  const auto topo = Topology::make(parse_topology("fat-tree:2,2:1,1:1,1"), 4,
                                   10e6);
  ASSERT_NE(topo, nullptr);
  EXPECT_EQ(topo->num_hosts(), 4u);
  EXPECT_EQ(path_of(*topo, 0, 1).size(), 2u);
  EXPECT_EQ(path_of(*topo, 0, 2).size(), 4u);
  EXPECT_EQ(path_of(*topo, 1, 3).size(), 4u);
}

TEST(TopologyRouting, TorusHopCountsTakeTheShorterWrap) {
  const auto topo = Topology::make(parse_topology("torus:4x4"), 16, 10e6);
  ASSERT_NE(topo, nullptr);
  EXPECT_EQ(topo->num_hosts(), 16u);
  EXPECT_EQ(topo->link_count(), 64u);  // 16 nodes x 2 dims x 2 directions.
  // (0,0) -> (2,1): two x-steps plus one y-step.
  EXPECT_EQ(path_of(*topo, 0, 6).size(), 3u);
  // (0,0) -> (3,0): the backward wrap is one hop, not three forward.
  EXPECT_EQ(path_of(*topo, 0, 3).size(), 1u);
}

TEST(TopologyRouting, PathsAreSymmetricInLengthAndDirected) {
  // route(d, s) retraces route(s, d) on the opposite-direction links:
  // same length, zero shared directed link ids.
  for (const char* spec : {"fat-tree:2,2:1,1:1,1", "fat-tree:4,4:1,2:1,2",
                           "torus:4x4", "torus:3x3x3"}) {
    SCOPED_TRACE(spec);
    const auto topo = Topology::make(parse_topology(spec), 0, 10e6);
    const std::size_t n = topo->num_hosts();
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t d = 0; d < n; ++d) {
        if (s == d) continue;
        const auto fwd = path_of(*topo, s, d);
        const auto rev = path_of(*topo, d, s);
        ASSERT_FALSE(fwd.empty());
        ASSERT_EQ(fwd.size(), rev.size());
        std::set<LinkId> links(fwd.begin(), fwd.end());
        EXPECT_EQ(links.size(), fwd.size());  // No link crossed twice.
        for (const LinkId link : rev) {
          EXPECT_EQ(links.count(link), 0u);
          EXPECT_LT(link, topo->link_count());
          EXPECT_GT(topo->link_capacity(link), 0.0);
        }
      }
    }
  }
}

TEST(TopologyRouting, RoutesArePureFunctionsOfEndpoints) {
  const auto topo =
      Topology::make(parse_topology("fat-tree:4,4:1,2:1,2"), 16, 10e6);
  for (std::size_t s = 0; s < 16; ++s) {
    for (std::size_t d = 0; d < 16; ++d) {
      if (s == d) continue;
      EXPECT_EQ(path_of(*topo, s, d), path_of(*topo, s, d));
    }
  }
}

// ---------------------------------------------------------------------------
// Fair-share contention.

TEST(TopologyContention, UncontendedFatTreeTransferPaysHopLatency) {
  Network net(quiet_with("fat-tree:2,2:1,1:1,1"), 4);
  ASSERT_NE(net.topology(), nullptr);
  // 1 MB at 10 MB/s through 4 links: 0.1 s + 100 us wire + 3 x 1 us hops.
  const Seconds t = net.transfer(0, 2, 1'000'000, seconds(0.0));
  EXPECT_NEAR(t.value(), 0.100103, 1e-9);
  // Siblings cross one switch only.
  const Seconds s = net.transfer(1, 0, 1'000'000, seconds(10.0));
  EXPECT_NEAR(s.value(), 10.100101, 1e-9);
}

TEST(TopologyContention, SharedUplinkHalvesTheRate) {
  Network net(quiet_with("fat-tree:2,2:1,1:1,1"), 4);
  // A: 0 -> 2 commits the single root uplink for [0, 0.1].
  const Seconds a = net.transfer(0, 2, 1'000'000, seconds(0.0));
  EXPECT_NEAR(a.value(), 0.100103, 1e-9);
  // B: 1 -> 3 shares that uplink: 5 MB/s while A runs (0.5 MB done at
  // t=0.1), then the full 10 MB/s for the rest -> finishes at 0.15.
  const Seconds b = net.transfer(1, 3, 1'000'000, seconds(0.0));
  EXPECT_NEAR(b.value(), 0.150103, 1e-9);
}

TEST(TopologyContention, TorusSharesTheFirstCommonLink) {
  Network net(quiet_with("torus:4x4"), 16);
  // 0 -> 1 occupies node 0's +x link for [0, 0.1].
  const Seconds a = net.transfer(0, 1, 1'000'000, seconds(0.0));
  EXPECT_NEAR(a.value(), 0.1001, 1e-9);
  // 0 -> 2 crosses that same link first: half rate until 0.1, full after.
  const Seconds b = net.transfer(0, 2, 1'000'000, seconds(0.0));
  EXPECT_NEAR(b.value(), 0.150101, 1e-9);
}

TEST(TopologyContention, CommittedArrivalsAreNeverRevised) {
  // The first flow's arrival is returned before the second is injected;
  // injecting the second must not change what the first reported, and
  // replays of the same call sequence must reproduce both bytes exactly.
  Network once(quiet_with("fat-tree:2,2:1,1:1,1"), 4);
  const Seconds a1 = once.transfer(0, 2, 1'000'000, seconds(0.0));
  const Seconds b1 = once.transfer(1, 3, 1'000'000, seconds(0.0));

  Network again(quiet_with("fat-tree:2,2:1,1:1,1"), 4);
  const Seconds a2 = again.transfer(0, 2, 1'000'000, seconds(0.0));
  const Seconds b2 = again.transfer(1, 3, 1'000'000, seconds(0.0));
  EXPECT_EQ(a1.value(), a2.value());
  EXPECT_EQ(b1.value(), b2.value());
}

TEST(TopologyContention, TransferSequenceIsDeterministic) {
  // Two networks fed the identical mixed sequence return bit-identical
  // arrivals — the property that makes routed runs reproducible.
  const auto run = [](Network& net) {
    std::vector<double> arrivals;
    double t = 0.0;
    for (int i = 0; i < 64; ++i) {
      const auto src = static_cast<std::size_t>(i % 16);
      const auto dst = static_cast<std::size_t>((i * 7 + 3) % 16);
      if (src == dst) continue;
      arrivals.push_back(
          net.transfer(src, dst, 100'000 + 1'000 * i, seconds(t)).value());
      t += 0.001;
    }
    return arrivals;
  };
  for (const char* spec : {"fat-tree:4,4:1,2:1,2", "torus:4x4"}) {
    SCOPED_TRACE(spec);
    Network x(quiet_with(spec), 16);
    Network y(quiet_with(spec), 16);
    EXPECT_EQ(run(x), run(y));
  }
}

TEST(TopologyContention, TrunkBandwidthCapsSpineLinks) {
  // A 2 MB/s spine under 10 MB/s NICs: the cross-subtree transfer is
  // spine-bound (0.5 s for 1 MB), the sibling transfer is NIC-bound.
  Network net(quiet_with("fat-tree:2,2:1,1:1,1:trunk_bw=2000000"), 4);
  const Seconds cross = net.transfer(0, 2, 1'000'000, seconds(0.0));
  EXPECT_NEAR(cross.value(), 0.500103, 1e-9);
  const Seconds sibling = net.transfer(1, 0, 1'000'000, seconds(0.0));
  EXPECT_NEAR(sibling.value(), 0.100101, 1e-9);
}

// ---------------------------------------------------------------------------
// Cluster / cache wiring.

TEST(TopologyWiring, InstallTopologyLiftsMaxNodesToShapeCapacity) {
  cluster::ClusterConfig config = cluster::athlon_cluster();
  ASSERT_EQ(config.max_nodes, 10);
  cluster::install_topology(&config,
                            parse_topology("fat-tree:16,16:1,2:1,4"));
  EXPECT_EQ(config.max_nodes, 256);
  EXPECT_EQ(to_spec(config.network.topology),
            "fat-tree:16,16:1,2:1,4:hop_us=1");

  // A shape smaller than the cluster leaves max_nodes alone (runs that
  // exceed its seats fail at Network construction, not here).
  cluster::ClusterConfig small = cluster::athlon_cluster();
  cluster::install_topology(&small, parse_topology("torus:4x4"));
  EXPECT_EQ(small.max_nodes, 16);

  cluster::ClusterConfig flat = cluster::athlon_cluster();
  cluster::install_topology(&flat, parse_topology("flat"));
  EXPECT_EQ(flat.max_nodes, 10);
  EXPECT_TRUE(flat.network.topology.flat());
}

TEST(TopologyWiring, CanonicalConfigCarriesTheTopologySpec) {
  cluster::ClusterConfig config = cluster::athlon_cluster();
  const std::string flat_key = exec::canonical_config(config);
  EXPECT_NE(flat_key.find("topology=flat"), std::string::npos);

  cluster::install_topology(&config, parse_topology("torus:8x8x4"));
  const std::string routed_key = exec::canonical_config(config);
  EXPECT_NE(routed_key.find("topology=torus:8x8x4:hop_us=1"),
            std::string::npos);
  EXPECT_NE(flat_key, routed_key);
}

}  // namespace
}  // namespace gearsim::net
