// Cross-job gear arbitration under the site power cap.
//
// The scheduler fixes every running job's *width* (node count) at
// placement; the gear is the knob that stays live.  At every scheduling
// event (arrival, completion, outage, repair) the arbiter re-assigns a
// gear to each running job so that the total draw — jobs plus parked
// nodes — fits the cap, redistributing a finished or crashed job's power
// budget instead of leaving it parked (the COUNTDOWN /
// power-redistribution policy vocabulary, see docs/SCHEDULER.md).
//
// The assignment is a deterministic rung-climbing auction over each
// job's Pareto gear frontier (WorkloadProfile::gear_frontier):
//
//  1. every job starts at its lowest-power rung (if even that exceeds
//     the budget, arbitration fails and the caller must not have placed
//     the job);
//  2. rounds of one-rung upshifts follow, each round visiting jobs in
//     priority order — minimize_time_to_solution first, untagged and
//     minimize_edp next, minimize_energy_to_solution last — granting one
//     rung wherever the budget allows;
//  3. no job climbs past the rung that minimizes its tag's
//     objective_score: minimize_energy and minimize_edp jobs stop at
//     their energy- and EDP-optimal rungs, the others climb toward the
//     fastest;
//  4. rounds repeat until a full round grants nothing.
//
// Round-robin rounds (rather than letting the first job climb to the
// top) spread headroom across jobs of equal priority, which is what
// makes the whole-queue makespan benefit from a mid-run redistribution
// measurable job by job.
#pragma once

#include <optional>
#include <vector>

#include "sched/jobscript.hpp"
#include "sched/profile.hpp"

namespace gearsim::sched {

/// One running job as the arbiter sees it.
struct ArbiterJob {
  const WorkloadProfile* profile = nullptr;  ///< Must outlive the call.
  int nodes = 1;                             ///< Width fixed at placement.
  EnergyPolicyTag tag = EnergyPolicyTag::kNone;
};

/// A full gear assignment: `gears[i]` is the ConfigPoint job `i` runs at
/// (same width it was placed with); `draw` is the jobs' summed mean
/// power, excluding parked nodes.
struct ArbiterOutcome {
  std::vector<ConfigPoint> gears;
  Watts draw{};
};

class GearArbiter {
 public:
  GearArbiter(Watts power_cap, Watts idle_node_power);

  /// Assign gears to `jobs` with `parked_nodes` idle survivors drawing
  /// against the cap.  Returns nullopt when even the all-lowest-power
  /// assignment exceeds the cap (the caller admitted too much).  Throws
  /// ContractError if some job has no profile point at its width.
  [[nodiscard]] std::optional<ArbiterOutcome> arbitrate(
      const std::vector<ArbiterJob>& jobs, int parked_nodes) const;

  [[nodiscard]] Watts power_cap() const { return power_cap_; }
  [[nodiscard]] Watts idle_node_power() const { return idle_node_power_; }

 private:
  Watts power_cap_;
  Watts idle_node_power_;
};

/// Priority class for headroom: lower wins (time 0, none and EDP 1,
/// energy 2).
[[nodiscard]] int headroom_priority(EnergyPolicyTag tag);

/// The quantity a job's tag minimizes, lower is better: energy for
/// minimize_energy, energy x time for minimize_edp, time otherwise.  Both
/// scheduler arms and the arbiter's ceiling rank points by it.
[[nodiscard]] double objective_score(EnergyPolicyTag tag,
                                     const ConfigPoint& p);

}  // namespace gearsim::sched
