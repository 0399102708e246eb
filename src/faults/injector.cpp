#include "faults/injector.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace gearsim::faults {

namespace {
std::string describe_failure(std::size_t node, Seconds at) {
  return "node " + std::to_string(node) + " failed at t=" +
         std::to_string(at.value()) + "s with no checkpoint/restart policy";
}
}  // namespace

NodeFailure::NodeFailure(std::size_t node_, Seconds at_)
    : SimulationError(describe_failure(node_, at_)), node(node_), at(at_) {}

FaultInjector::FaultInjector(const FaultPlan& plan, net::Network& network,
                             std::size_t nodes, std::size_t num_gears,
                             trace::FaultLog* log)
    : plan_(plan), num_gears_(num_gears), log_(log) {
  plan_.validate(nodes, num_gears);
  if (!plan_.link_faults().empty()) {
    network.set_link_faults(plan_.link_faults(), plan_.seed());
    if (log_ != nullptr) {
      network.set_retransmit_hook([this](std::size_t src, std::size_t dst,
                                         Seconds at, int losses,
                                         Seconds penalty) {
        log_->push_back(trace::FaultEvent{
            trace::FaultEventKind::kLinkDrop, src, at,
            "link " + std::to_string(src) + "->" + std::to_string(dst) + ": " +
                std::to_string(losses) + " lost, +" +
                std::to_string(penalty.value()) + "s"});
      });
    }
  }
  if (log_ != nullptr) {
    // Environment windows are known up front; put their edges on the
    // timeline immediately (realization is queried lazily during the run).
    for (const StragglerWindow& w : plan_.stragglers()) {
      log_->push_back(trace::FaultEvent{
          trace::FaultEventKind::kStragglerBegin, w.node, w.from,
          "gear capped at index " + std::to_string(w.min_gear_index)});
      log_->push_back(trace::FaultEvent{trace::FaultEventKind::kStragglerEnd,
                                        w.node, w.until, ""});
    }
    for (const MeterDropout& w : plan_.meter_dropouts()) {
      log_->push_back(trace::FaultEvent{trace::FaultEventKind::kMeterDropBegin,
                                        w.node, w.from, ""});
      log_->push_back(trace::FaultEvent{trace::FaultEventKind::kMeterDropEnd,
                                        w.node, w.until, ""});
    }
  }
}

void FaultInjector::arm_crashes(sim::Engine& engine,
                                std::function<bool()> still_running) {
  GEARSIM_REQUIRE(static_cast<bool>(still_running),
                  "crash events need a liveness predicate");
  // The whole crash schedule is known up front: queue it in plan order.
  for (const CrashEvent& ev : plan_.crashes()) {
    engine.schedule_at(
        ev.at, [this, ev, still_running]() {
          // Only the first crash aborts; the run is already over (or
          // already aborted) for the rest.
          if (crash_thrown_ || !still_running()) return;
          crash_thrown_ = true;
          if (log_ != nullptr) {
            log_->push_back(trace::FaultEvent{trace::FaultEventKind::kNodeCrash,
                                              ev.node, ev.at, "node crash"});
          }
          throw NodeFailure(ev.node, ev.at);
        });
  }
}

std::size_t FaultInjector::effective_gear(std::size_t node, Seconds now,
                                          std::size_t requested) const {
  std::size_t gear = requested;
  for (const StragglerWindow& w : plan_.stragglers()) {
    if (w.node == node && now >= w.from && now < w.until) {
      gear = std::max(gear, w.min_gear_index);
    }
  }
  return std::min(gear, num_gears_ - 1);
}

std::vector<power::DropoutWindow> FaultInjector::dropouts_for(
    std::size_t node) const {
  std::vector<power::DropoutWindow> out;
  for (const MeterDropout& w : plan_.meter_dropouts()) {
    if (w.node == node) out.push_back(power::DropoutWindow{w.from, w.until});
  }
  return out;
}

}  // namespace gearsim::faults
