#include "faults/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/random.hpp"

namespace gearsim::faults {

FaultPlan& FaultPlan::crash(std::size_t node, Seconds at) {
  GEARSIM_REQUIRE(at.value() >= 0.0, "crash before the run starts");
  const CrashEvent ev{node, at};
  crashes_.insert(std::upper_bound(crashes_.begin(), crashes_.end(), ev,
                                   [](const CrashEvent& a, const CrashEvent& b) {
                                     return a.at < b.at;
                                   }),
                  ev);
  return *this;
}

FaultPlan& FaultPlan::straggle(std::size_t node, Seconds from, Seconds until,
                               std::size_t min_gear_index) {
  GEARSIM_REQUIRE(from.value() >= 0.0 && until > from,
                  "straggler window must span positive time");
  stragglers_.push_back(StragglerWindow{node, from, until, min_gear_index});
  return *this;
}

FaultPlan& FaultPlan::degrade_link(net::LinkFaultWindow window) {
  link_faults_.push_back(window);
  return *this;
}

FaultPlan& FaultPlan::drop_meter(std::size_t node, Seconds from,
                                 Seconds until) {
  GEARSIM_REQUIRE(from.value() >= 0.0 && until > from,
                  "dropout window must span positive time");
  meter_dropouts_.push_back(MeterDropout{node, from, until});
  return *this;
}

FaultPlan& FaultPlan::with_checkpointing(CheckpointConfig config) {
  GEARSIM_REQUIRE(config.write_time.value() >= 0.0, "negative write time");
  GEARSIM_REQUIRE(config.write_power.value() >= 0.0, "negative write power");
  GEARSIM_REQUIRE(config.restart_time.value() >= 0.0, "negative restart time");
  GEARSIM_REQUIRE(config.restart_power.value() >= 0.0,
                  "negative restart power");
  GEARSIM_REQUIRE(config.max_restarts >= 0, "negative restart cap");
  checkpoint_ = config;
  return *this;
}

FaultPlan& FaultPlan::random_crashes(double per_node_rate_hz,
                                     std::size_t nodes, Seconds horizon) {
  GEARSIM_REQUIRE(std::isfinite(per_node_rate_hz) && per_node_rate_hz >= 0.0,
                  "failure rate must be non-negative and finite");
  GEARSIM_REQUIRE(nodes >= 1, "need at least one node");
  GEARSIM_REQUIRE(std::isfinite(horizon.value()) && horizon.value() > 0.0,
                  "horizon must be positive and finite");
  if (per_node_rate_hz == 0.0) return *this;
  // Append in node-major order, then stable-sort by time: the order
  // inserting each crash after every earlier-or-equal one would give,
  // in O(n log n) instead of O(n^2).
  std::vector<CrashEvent> drawn;
  const Rng base(seed_);
  for (std::size_t node = 0; node < nodes; ++node) {
    // One independent exponential inter-arrival stream per node.
    Rng rng = base.fork(node);
    double t = 0.0;
    for (;;) {
      double u = rng.uniform();
      while (u <= 0.0) u = rng.uniform();
      t += -std::log(u) / per_node_rate_hz;
      if (t >= horizon.value()) break;
      GEARSIM_REQUIRE(drawn.size() < kMaxRandomCrashes,
                      "random crash plan exceeds " +
                          std::to_string(kMaxRandomCrashes) +
                          " crashes: lower the rate or the horizon");
      drawn.push_back(CrashEvent{node, seconds(t)});
    }
  }
  crashes_.insert(crashes_.end(), drawn.begin(), drawn.end());
  std::stable_sort(crashes_.begin(), crashes_.end(),
                   [](const CrashEvent& a, const CrashEvent& b) {
                     return a.at < b.at;
                   });
  return *this;
}

void FaultPlan::validate(std::size_t nodes, std::size_t num_gears) const {
  GEARSIM_REQUIRE(nodes >= 1 && num_gears >= 1, "degenerate cluster");
  for (const CrashEvent& ev : crashes_) {
    GEARSIM_REQUIRE(ev.node < nodes, "crash targets a node outside the run");
  }
  for (const StragglerWindow& w : stragglers_) {
    GEARSIM_REQUIRE(w.node < nodes, "straggler targets a node outside the run");
    GEARSIM_REQUIRE(w.min_gear_index < num_gears,
                    "straggler gear cap outside the gear table");
  }
  for (const MeterDropout& w : meter_dropouts_) {
    GEARSIM_REQUIRE(w.node < nodes, "dropout targets a node outside the run");
  }
}

}  // namespace gearsim::faults
