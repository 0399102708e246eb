#include "sched/arbiter.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace gearsim::sched {

int headroom_priority(EnergyPolicyTag tag) {
  switch (tag) {
    case EnergyPolicyTag::kMinimizeTimeToSolution: return 0;
    case EnergyPolicyTag::kNone:
    case EnergyPolicyTag::kMinimizeEdp: return 1;
    case EnergyPolicyTag::kMinimizeEnergyToSolution: return 2;
  }
  return 1;
}

double objective_score(EnergyPolicyTag tag, const ConfigPoint& p) {
  switch (tag) {
    case EnergyPolicyTag::kMinimizeEnergyToSolution: return p.energy.value();
    case EnergyPolicyTag::kMinimizeEdp: return p.edp();
    case EnergyPolicyTag::kMinimizeTimeToSolution:
    case EnergyPolicyTag::kNone: return p.time.value();
  }
  return p.time.value();
}

GearArbiter::GearArbiter(Watts power_cap, Watts idle_node_power)
    : power_cap_(power_cap), idle_node_power_(idle_node_power) {
  GEARSIM_REQUIRE(power_cap_.value() > 0.0, "non-positive power cap");
  GEARSIM_REQUIRE(idle_node_power_.value() >= 0.0, "negative idle power");
}

namespace {

/// Per-job climbing state: the frontier ladder (fastest first) plus the
/// current rung and the fastest rung this job's tag permits.
struct Climber {
  std::vector<ConfigPoint> ladder;
  std::size_t rung = 0;       ///< Current index (ladder.size()-1 = slowest).
  std::size_t ceiling = 0;    ///< Smallest (fastest) index the tag allows.
  int priority = 1;
};

}  // namespace

std::optional<ArbiterOutcome> GearArbiter::arbitrate(
    const std::vector<ArbiterJob>& jobs, int parked_nodes) const {
  GEARSIM_REQUIRE(parked_nodes >= 0, "negative parked-node count");
  const Watts budget =
      power_cap_ - static_cast<double>(parked_nodes) * idle_node_power_;

  std::vector<Climber> climbers;
  climbers.reserve(jobs.size());
  for (const ArbiterJob& job : jobs) {
    GEARSIM_REQUIRE(job.profile != nullptr, "arbiter job without a profile");
    Climber c;
    c.ladder = job.profile->gear_frontier(job.nodes);
    GEARSIM_REQUIRE(!c.ladder.empty(),
                    "job has no profile point at width " +
                        std::to_string(job.nodes));
    c.rung = c.ladder.size() - 1;  // Lowest power.
    c.priority = headroom_priority(job.tag);
    // Never climb past the tag's optimal rung (ties break faster).  Time
    // strictly rises along the ladder, so for time and untagged jobs
    // this is the fastest rung.
    for (std::size_t i = 1; i < c.ladder.size(); ++i) {
      if (objective_score(job.tag, c.ladder[i]) <
          objective_score(job.tag, c.ladder[c.ceiling])) {
        c.ceiling = i;
      }
    }
    climbers.push_back(std::move(c));
  }

  // Total draw recomputed in job order every time, so the floating-point
  // sum the feasibility checks see is exactly the one the caller's cap
  // invariant will see.
  const auto total_draw = [&climbers] {
    Watts sum{};
    for (const Climber& c : climbers) sum += c.ladder[c.rung].mean_power();
    return sum;
  };

  if (total_draw() > budget) return std::nullopt;

  // Visit order: priority class, then submission order (stable).
  std::vector<std::size_t> order(climbers.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&climbers](std::size_t a, std::size_t b) {
                     return climbers[a].priority < climbers[b].priority;
                   });

  bool granted = true;
  while (granted) {
    granted = false;
    for (std::size_t i : order) {
      Climber& c = climbers[i];
      if (c.rung <= c.ceiling) continue;  // Already as fast as allowed.
      const Watts without = total_draw() - c.ladder[c.rung].mean_power();
      if (without + c.ladder[c.rung - 1].mean_power() > budget) continue;
      --c.rung;
      granted = true;
    }
  }

  ArbiterOutcome outcome;
  outcome.gears.reserve(climbers.size());
  for (const Climber& c : climbers) outcome.gears.push_back(c.ladder[c.rung]);
  outcome.draw = total_draw();
  return outcome;
}

}  // namespace gearsim::sched
