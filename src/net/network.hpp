// Network timing model: switched Ethernet with NIC serialization and a
// finite switch backplane.
//
// A message of B bytes from src to dst experiences
//   * sender NIC serialization (B / link_bandwidth), FIFO per sender,
//   * backplane occupancy (B / backplane_bandwidth), FIFO across the
//     whole cluster — this is what makes dense patterns (CG's exchanges,
//     alltoall) scale super-linearly in node count,
//   * wire latency,
//   * receiver NIC serialization, FIFO per receiver (incast contention).
//
// All state is a handful of "busy-until" reservations, so cost per message
// is O(1).  The paper's cluster is 100 Mb/s Ethernet; presets below also
// model the Sun validation cluster and the paper's discarded shared-network
// Xeon cluster.
//
// Fault injection: set_link_faults installs windows during which messages
// on matching links are lost with some probability and retransmitted after
// a timeout with exponential backoff, and/or see a transient latency
// spike.  With no windows installed the transfer path is byte-identical to
// the fault-free model (no fault RNG is ever constructed).  Loss draws are
// keyed by *transfer identity* — (src, per-source transfer ordinal) forks
// an independent stream off the plan seed — so a message's realization
// does not depend on how transfers from other sources interleave.
//
// Topology mode: when NetworkParams::topology is not flat, the
// NIC/backplane reservations above are replaced by per-link fair
// bandwidth sharing along the routed path (fat-tree or torus — see
// net/topology.hpp and docs/NETWORK.md).  A transfer's duration is the
// fluid-flow time to push its bytes through the path when every crossed
// link splits its capacity evenly among the flows committed on it; the
// flow then commits its own [inject, finish) interval so later transfers
// see the contention it created.  Arrivals already returned are never
// revised (re-sharing is applied to flows that arrive *after*, keeping
// transfer() causal and its result a pure function of the call
// sequence).  The flat topology does not touch any of this code: it
// keeps the original reservation model byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "net/topology.hpp"
#include "util/assert.hpp"
#include "util/random.hpp"
#include "util/units.hpp"

namespace gearsim::net {

struct NetworkParams {
  /// One-way wire + stack latency per message.
  Seconds latency = microseconds(80.0);
  /// Per-link (NIC) bandwidth in bytes/second.
  double link_bandwidth = 11.9e6;  // ~95 Mb/s effective on 100 Mb/s.
  /// Aggregate switch fabric bandwidth in bytes/second.  Smaller values
  /// create cluster-wide contention; `shared medium` is backplane == link.
  /// The default is full bisection for a 12-port 100 Mb/s switch.
  double backplane_bandwidth = 12 * 11.9e6;
  /// Multiplicative jitter stddev applied to latency (0 = deterministic).
  double latency_jitter = 0.0;
  std::uint64_t jitter_seed = 7;
  /// Routing structure.  kFlat (the default) keeps the NIC/backplane
  /// reservation model above; fat-tree / torus switch to routed paths
  /// with per-link fair sharing and per-switch hop latency.
  TopologyParams topology;
};

/// 100 Mb/s switched Ethernet of the paper's Athlon-64 cluster.
NetworkParams ethernet_100mbps();
/// The 32-node Sun validation cluster (same era, similar fabric).
NetworkParams sun_cluster_network();
/// The 64-node Xeon cluster whose network was shared among large jobs —
/// heavy jitter; the paper discarded its numbers as unreliable.
NetworkParams shared_xeon_network();

/// One window of degraded service on a link (or set of links).
struct LinkFaultWindow {
  /// Wildcard endpoint: the window matches any source / destination.
  static constexpr std::size_t kAnyNode =
      std::numeric_limits<std::size_t>::max();

  std::size_t src = kAnyNode;
  std::size_t dst = kAnyNode;
  Seconds from{};
  Seconds until = seconds(std::numeric_limits<double>::infinity());
  /// Per-attempt loss probability for messages injected inside the window.
  double loss_probability = 0.0;
  /// Sender timeout before the first retransmission.
  Seconds retransmit_timeout = milliseconds(1.0);
  /// Each further retransmission waits backoff x the previous timeout.
  double backoff = 2.0;
  /// Retransmissions are capped; the final attempt always goes through
  /// (the transport eventually wins — a dead node is a crash fault, not a
  /// link fault).
  int max_retries = 8;
  /// Transient latency spike: multiplies the wire latency of every
  /// message (including the surviving attempt) in the window.
  double latency_factor = 1.0;

  [[nodiscard]] bool applies(std::size_t s, std::size_t d, Seconds now) const {
    return (src == kAnyNode || src == s) && (dst == kAnyNode || dst == d) &&
           now >= from && now < until;
  }
};

class Network {
 public:
  Network(NetworkParams params, std::size_t num_nodes);

  [[nodiscard]] const NetworkParams& params() const { return params_; }
  [[nodiscard]] std::size_t num_nodes() const { return tx_free_.size(); }

  /// Reserve resources for one message injected at `now` and return its
  /// arrival (fully-received) time at `dst`.  Reservations persist, so
  /// later transfers see the contention this one created.
  Seconds transfer(std::size_t src, std::size_t dst, Bytes bytes, Seconds now);

  /// Pure lower-bound transfer time with no contention (for tests/docs).
  [[nodiscard]] Seconds uncontended_time(Bytes bytes) const;

  /// The routing structure, nullptr in flat mode (for tests/reports).
  [[nodiscard]] const Topology* topology() const { return topology_.get(); }

  /// Total messages / bytes carried (for reports).
  [[nodiscard]] std::uint64_t messages_carried() const { return messages_; }
  [[nodiscard]] std::uint64_t bytes_carried() const { return bytes_; }

  /// Install fault windows; losses are drawn from per-transfer RNG
  /// streams forked off `seed` by (src, per-source transfer ordinal),
  /// independent of the latency-jitter stream and of the global transfer
  /// interleaving.  Validates every window (endpoint bounds, probability
  /// in [0,1], timeout/backoff/latency-factor sanity).  An empty vector
  /// restores the exact fault-free behavior.
  void set_link_faults(std::vector<LinkFaultWindow> windows,
                       std::uint64_t seed);
  [[nodiscard]] const std::vector<LinkFaultWindow>& link_faults() const {
    return link_faults_;
  }
  /// Total retransmissions performed across all faulty windows.
  [[nodiscard]] std::uint64_t retransmissions() const {
    return retransmissions_;
  }
  /// Observer for retransmission bursts: (src, dst, inject time, number of
  /// lost attempts, total backoff delay added).  Used by the fault layer
  /// to put link drops on the run's fault timeline.
  using RetransmitHook = std::function<void(std::size_t, std::size_t, Seconds,
                                            int, Seconds)>;
  void set_retransmit_hook(RetransmitHook hook) { on_retransmit_ = std::move(hook); }

 private:
  /// One committed flow-count change on a link (+1 arrival, -1 finish).
  struct LinkFlowEvent {
    Seconds time{};
    int delta = 0;
  };
  /// Per-link fair-share state: `active` flows as of the last prune,
  /// plus the committed count changes, sorted by time.  Events before
  /// `head` are settled (already folded into `active`); they are dropped
  /// in bulk once they pass half the vector, or all at once when it
  /// drains, instead of being erased from the front on every prune.
  struct LinkSchedule {
    int active = 0;
    std::size_t head = 0;
    std::vector<LinkFlowEvent> events;
  };

  /// One crossed link's state while routed_transfer integrates a flow:
  /// its schedule, its fair share (capacity over its flows plus this
  /// one) and the time of its next committed count change.  refresh()
  /// recomputes both after the count or cursor moves, so an integration
  /// step divides only for links whose count changed, and the divisions
  /// and minimums are the ones recomputing every link at every step did.
  struct Hop {
    LinkSchedule* sched = nullptr;
    double capacity = 0.0;
    std::size_t cursor = 0;
    int count = 0;
    double share = 0.0;
    Seconds next{};

    void refresh() {
      share = capacity / static_cast<double>(count + 1);
      next = cursor < sched->events.size()
                 ? sched->events[cursor].time
                 : seconds(std::numeric_limits<double>::infinity());
    }
  };

  /// The jitter / fault-window latency realization shared by the flat
  /// and routed paths (advances the jitter and loss RNG streams).
  Seconds latency_realization(std::size_t src, std::size_t dst, Seconds now,
                              Seconds base);
  /// Topology-mode transfer: route, integrate the fair-share rate over
  /// committed link schedules, commit this flow's interval.
  Seconds routed_transfer(std::size_t src, std::size_t dst, Bytes bytes,
                          Seconds now);

  NetworkParams params_;
  std::vector<Seconds> tx_free_;
  std::vector<Seconds> rx_free_;
  Seconds backplane_free_{};
  Rng jitter_rng_;
  std::unique_ptr<Topology> topology_;
  /// Topology::link_capacity per LinkId, copied once at construction.
  std::vector<double> link_capacity_;
  std::vector<LinkSchedule> link_sched_;
  /// routed_transfer's path and per-link state, sized once to the
  /// topology's longest path.  Members rather than locals: on the stack
  /// they put kilobytes under every rank's network call, and 1024 fibers
  /// touching that much more stack made the 1024-rank SHIFT run slower,
  /// not faster.
  std::vector<LinkId> path_;
  std::vector<Hop> hops_;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
  std::vector<LinkFaultWindow> link_faults_;
  std::uint64_t fault_seed_ = 0;
  /// Per-source transfer ordinals while fault windows are installed: the
  /// (src, ordinal) pair is a transfer's loss-stream identity.  Counted
  /// for *every* transfer (matching a window or not) so the identity is a
  /// pure function of the per-source call sequence.
  std::vector<std::uint64_t> fault_seq_;
  std::uint64_t retransmissions_ = 0;
  RetransmitHook on_retransmit_;
};

}  // namespace gearsim::net
