#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace gearsim::net {

NetworkParams ethernet_100mbps() { return NetworkParams{}; }

NetworkParams sun_cluster_network() {
  NetworkParams p;
  p.latency = microseconds(70.0);
  p.link_bandwidth = 11.9e6;
  p.backplane_bandwidth = 8 * 11.9e6;  // Bigger switch on the 32-node machine.
  return p;
}

NetworkParams shared_xeon_network() {
  NetworkParams p;
  p.latency = microseconds(60.0);
  p.link_bandwidth = 119e6;  // Gigabit NICs...
  p.backplane_bandwidth = 2 * 119e6;  // ...but a fabric shared with other jobs.
  p.latency_jitter = 0.8;  // The paper calls these results unreliable.
  return p;
}

Network::Network(NetworkParams params, std::size_t num_nodes)
    : params_(params),
      tx_free_(num_nodes),
      rx_free_(num_nodes),
      jitter_rng_(params.jitter_seed) {
  GEARSIM_REQUIRE(num_nodes >= 1, "network needs at least one node");
  GEARSIM_REQUIRE(std::isfinite(params_.link_bandwidth) &&
                      params_.link_bandwidth > 0.0,
                  "link bandwidth must be positive and finite");
  GEARSIM_REQUIRE(std::isfinite(params_.backplane_bandwidth) &&
                      params_.backplane_bandwidth >= params_.link_bandwidth,
                  "backplane cannot be slower than one link");
  GEARSIM_REQUIRE(std::isfinite(params_.latency.value()) &&
                      params_.latency.value() >= 0.0,
                  "negative or non-finite latency");
  GEARSIM_REQUIRE(std::isfinite(params_.latency_jitter) &&
                      params_.latency_jitter >= 0.0,
                  "negative or non-finite jitter");
  topology_ =
      Topology::make(params_.topology, num_nodes, params_.link_bandwidth);
  if (topology_ != nullptr) {
    link_capacity_.resize(topology_->link_count());
    for (std::size_t l = 0; l < link_capacity_.size(); ++l) {
      link_capacity_[l] = topology_->link_capacity(static_cast<LinkId>(l));
    }
    link_sched_.resize(topology_->link_count());
    path_.resize(topology_->max_path_links());
    hops_.resize(topology_->max_path_links());
  }
}

Seconds Network::uncontended_time(Bytes bytes) const {
  return params_.latency +
         seconds(static_cast<double>(bytes) / params_.link_bandwidth);
}

void Network::set_link_faults(std::vector<LinkFaultWindow> windows,
                              std::uint64_t seed) {
  for (const LinkFaultWindow& w : windows) {
    GEARSIM_REQUIRE(w.src == LinkFaultWindow::kAnyNode || w.src < num_nodes(),
                    "fault window source out of range");
    GEARSIM_REQUIRE(w.dst == LinkFaultWindow::kAnyNode || w.dst < num_nodes(),
                    "fault window destination out of range");
    GEARSIM_REQUIRE(w.from.value() >= 0.0 && w.until > w.from,
                    "fault window must span positive time");
    GEARSIM_REQUIRE(w.loss_probability >= 0.0 && w.loss_probability <= 1.0,
                    "loss probability outside [0, 1]");
    GEARSIM_REQUIRE(w.loss_probability == 0.0 ||
                        w.retransmit_timeout.value() > 0.0,
                    "lossy window needs a positive retransmit timeout");
    GEARSIM_REQUIRE(w.backoff >= 1.0, "backoff factor below 1");
    GEARSIM_REQUIRE(w.max_retries >= 0, "negative retry cap");
    GEARSIM_REQUIRE(std::isfinite(w.latency_factor) && w.latency_factor >= 1.0,
                    "latency spike factor must be >= 1");
  }
  link_faults_ = std::move(windows);
  fault_seed_ = seed;
  fault_seq_.assign(num_nodes(), 0);
  retransmissions_ = 0;
}

Seconds Network::latency_realization(std::size_t src, std::size_t dst,
                                     Seconds now, Seconds base) {
  Seconds lat = base;
  if (params_.latency_jitter > 0.0) {
    lat *= std::max(0.1, 1.0 + jitter_rng_.normal(0.0, params_.latency_jitter));
  }

  if (!link_faults_.empty()) {
    // Degraded-link realization: each loss costs one timeout, doubling
    // (by `backoff`) per further loss; spikes multiply the wire latency.
    // Draws come from a stream keyed by this transfer's identity — the
    // (src, per-source ordinal) pair — so the realization is independent
    // of how transfers from different sources interleave.  The
    // ordinal advances for every transfer while windows are installed,
    // matched or not, keeping the identity a pure function of the
    // per-source call sequence.
    const std::uint64_t ordinal = fault_seq_[src]++;
    Rng draw(fault_seed_ ^
             (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(src) + 1)) ^
             (0xd1342543de82ef95ULL * (ordinal + 1)));
    double spike = 1.0;
    int losses = 0;
    Seconds penalty{};
    for (const LinkFaultWindow& w : link_faults_) {
      if (!w.applies(src, dst, now)) continue;
      spike = std::max(spike, w.latency_factor);
      Seconds timeout = w.retransmit_timeout;
      while (losses < w.max_retries &&
             draw.uniform() < w.loss_probability) {
        penalty += timeout;
        timeout *= w.backoff;
        ++losses;
      }
    }
    if (losses > 0) {
      retransmissions_ += static_cast<std::uint64_t>(losses);
      if (on_retransmit_) on_retransmit_(src, dst, now, losses, penalty);
    }
    lat = lat * spike + penalty;
  }
  return lat;
}

Seconds Network::transfer(std::size_t src, std::size_t dst, Bytes bytes,
                          Seconds now) {
  GEARSIM_REQUIRE(src < tx_free_.size() && dst < rx_free_.size(),
                  "endpoint out of range");
  GEARSIM_REQUIRE(src != dst, "self-transfer does not use the network");
  ++messages_;
  bytes_ += bytes;

  if (topology_ != nullptr) return routed_transfer(src, dst, bytes, now);

  const double b = static_cast<double>(bytes);
  const Seconds wire = seconds(b / params_.link_bandwidth);
  const Seconds fabric = seconds(b / params_.backplane_bandwidth);

  // Sender NIC: FIFO serialization, gated by the shared fabric.
  const Seconds start = std::max({now, tx_free_[src], backplane_free_});
  tx_free_[src] = start + wire;
  backplane_free_ = start + fabric;

  const Seconds lat = latency_realization(src, dst, now, params_.latency);

  // Receiver NIC: the message occupies the RX link for its wire time,
  // FIFO among all senders targeting this node (incast contention).
  const Seconds rx_start = std::max(start + lat, rx_free_[dst]);
  const Seconds arrival = rx_start + wire;
  rx_free_[dst] = arrival;
  return arrival;
}

Seconds Network::routed_transfer(std::size_t src, std::size_t dst, Bytes bytes,
                                 Seconds now) {
  LinkId* const path = path_.data();
  const std::size_t links = topology_->route(src, dst, path);
  GEARSIM_ENSURE(links != 0, "routed path has no links");
  Hop* const hops = hops_.data();

  // Fold past count changes into each link's baseline.  transfer() calls
  // arrive with non-decreasing `now` — dispatch is time-ordered — so
  // events at or before `now` can never matter again.
  for (std::size_t i = 0; i < links; ++i) {
    LinkSchedule& sched = link_sched_[path[i]];
    std::vector<LinkFlowEvent>& events = sched.events;
    while (sched.head < events.size() && events[sched.head].time <= now) {
      sched.active += events[sched.head].delta;
      ++sched.head;
    }
    if (sched.head == events.size()) {
      events.clear();
      sched.head = 0;
    } else if (sched.head > events.size() / 2) {
      events.erase(events.begin(),
                   events.begin() + static_cast<std::ptrdiff_t>(sched.head));
      sched.head = 0;
    }
    hops[i].sched = &sched;
    hops[i].capacity = link_capacity_[path[i]];
    hops[i].cursor = sched.head;
    hops[i].count = sched.active;
    hops[i].refresh();
  }

  // Fluid fair share: this flow's rate at any instant is the tightest
  // link's capacity split among the flows committed there plus itself.
  // Integrate across the committed count-change boundaries until the
  // payload is through.  Committed flows' own finish times are frozen
  // (their arrivals were already returned), so this is causal and a pure
  // function of the transfer call sequence.  Routed paths never repeat a
  // link (climb/descend visits distinct trunks; dimension-ordered hops
  // depart distinct nodes), so the per-position counts stay independent.
  const double payload = static_cast<double>(bytes);
  double sent = 0.0;
  Seconds t = now;
  for (;;) {
    double rate = std::numeric_limits<double>::infinity();
    Seconds boundary = seconds(std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < links; ++i) {
      rate = std::min(rate, hops[i].share);
      boundary = std::min(boundary, hops[i].next);
    }
    const Seconds done_at = t + seconds((payload - sent) / rate);
    if (done_at <= boundary) {
      t = done_at;
      break;
    }
    sent += rate * (boundary - t).value();
    t = boundary;
    for (std::size_t i = 0; i < links; ++i) {
      Hop& hop = hops[i];
      if (hop.next != boundary) continue;
      const std::vector<LinkFlowEvent>& events = hop.sched->events;
      while (hop.cursor < events.size() &&
             events[hop.cursor].time == boundary) {
        hop.count += events[hop.cursor].delta;
        ++hop.cursor;
      }
      hop.refresh();
    }
  }

  // Commit this flow's [now, t) occupancy on every crossed link.
  for (std::size_t i = 0; i < links; ++i) {
    LinkSchedule& sched = *hops[i].sched;
    std::vector<LinkFlowEvent>& events = sched.events;
    const auto insert_at = [&sched, &events](Seconds time, int delta) {
      const auto pos = std::upper_bound(
          events.begin() + static_cast<std::ptrdiff_t>(sched.head),
          events.end(), time,
          [](Seconds v, const LinkFlowEvent& e) { return v < e.time; });
      events.insert(pos, LinkFlowEvent{time, delta});
    };
    insert_at(now, +1);
    insert_at(t, -1);
  }

  // Per-switch hop latency on top of the wire latency; jitter and fault
  // windows realize against the whole path latency.
  const Seconds base =
      params_.latency +
      params_.topology.hop_latency * static_cast<double>(links - 1);
  return t + latency_realization(src, dst, now, base);
}

}  // namespace gearsim::net
