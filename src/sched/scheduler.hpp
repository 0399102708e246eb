// Energy-aware batch scheduling for a power-capped, power-scalable
// cluster.
//
// "We believe in the future a given supercomputer cluster will be
// restricted to a certain amount of power consumption or heat
// dissipation" (paper, Section 3.2).  BatchScheduler makes that scenario
// concrete: jobs are LoadLeveler-style scripts (sched/jobscript.hpp)
// with arrival times, wall limits and per-job energy policy tags, and
// the sum of running jobs' draw plus the idle draw of parked nodes never
// exceeds the site cap.  It runs in one of two arms (BatchOptions):
//
//  * arbitrated (default) — placement fixes only the *width*, and a
//    GearArbiter (sched/arbiter.hpp) re-assigns every running job's gear
//    at every event — arrival, completion, outage, repair, wall-limit
//    kill — so a finished or crashed job's power budget is redistributed
//    to the survivors instead of parked;
//  * frozen — placement picks a (nodes, gear) point that minimizes the
//    job's objective_score and the point holds for the whole run, as in
//    the paper's uniform-gear runs.
//
// Two queue disciplines, shared by both arms:
//  * kFifo  — arrival order: the head job waits until it fits; and
//  * kGreedy — backfill: any queued job that fits may start (can starve
//    wide jobs; compared in tests and the example).
//
// schedule() is a pure function of its inputs: reruns are byte-identical,
// and the instantaneous-draw-under-cap invariant is sampled at every
// event boundary (tested in tests/sched_test.cpp).  See
// docs/SCHEDULER.md.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sched/arbiter.hpp"
#include "sched/jobscript.hpp"
#include "sched/profile.hpp"

namespace gearsim::obs {
class MetricsRegistry;  // obs/metrics.hpp
}

namespace gearsim::sched {

struct Machine {
  int nodes = 10;
  Watts power_cap = watts(1500.0);
  /// Draw of a node with nothing scheduled on it (parked at the slowest
  /// gear); counts against the cap and into total energy.
  Watts idle_node_power = watts(85.0);
};

enum class QueueDiscipline { kFifo, kGreedy };

/// A hardware outage: `nodes_lost` nodes leave service at `at` and return
/// `repair_after` later (default: never).  Jobs whose nodes are lost are
/// killed — their work so far is wasted — and re-queued at the front in
/// their original submission order.
struct NodeOutage {
  Seconds at{};
  int nodes_lost = 1;
  Seconds repair_after = seconds(std::numeric_limits<double>::infinity());
};

/// One submitted job: the parsed script plus the measured profile of its
/// workload (see WorkloadProfile::measure; widths above
/// min(script.total_tasks, machine nodes) are never used).
struct BatchJob {
  JobScript script;
  const WorkloadProfile* profile = nullptr;  ///< Must outlive the schedule.
};

struct BatchOptions {
  QueueDiscipline discipline = QueueDiscipline::kFifo;
  /// When false, every job keeps its placement point for its whole run
  /// and a finished or crashed job's budget stays parked — the frozen,
  /// no-redistribution arm.  Placement then picks the (nodes, gear)
  /// point with the best objective_score for the job's tag that fits
  /// next to the running jobs' draw.  The cap invariant is unchanged.
  bool arbitrate = true;
};

/// One completed run of one job (killed runs are not listed; their cost
/// is in BatchResult::wasted_energy and the preemption counters).
struct BatchPlacement {
  std::string job_id;
  std::string workload;
  EnergyPolicyTag tag = EnergyPolicyTag::kNone;
  int nodes = 0;
  Seconds start{};
  Seconds end{};
  int start_gear_label = 0;  ///< Gear granted at placement.
  int final_gear_label = 0;  ///< Gear held when the job completed.
  int gear_changes = 0;      ///< Mid-run arbitration shifts.
  Joules energy{};           ///< Exact integral of the job's draw.
};

/// Instantaneous total draw (jobs + parked survivors) at one event
/// boundary; the draw is constant until the next sample.
struct PowerSample {
  Seconds at{};
  Watts draw{};
};

struct BatchResult {
  std::vector<BatchPlacement> placements;  ///< In completion order.
  Seconds makespan{};
  Joules job_energy{};     ///< Integrated draw of completed runs.
  Joules idle_energy{};    ///< Parked survivors over the whole schedule.
  Joules wasted_energy{};  ///< Burned by killed runs before the kill.
  Watts peak_power{};      ///< Max instantaneous draw (== max sample).
  Watts min_headroom{};    ///< Min over samples of cap - draw (>= 0).
  int preemptions = 0;           ///< Outage kills (re-queued and re-run).
  int wall_limit_kills = 0;      ///< Wall-clock-limit kills (not re-run).
  std::uint64_t arbitrations = 0;    ///< Gear-assignment passes executed.
  /// Power re-granted by arbitration: at every event, the summed
  /// *increase* in draw of jobs that were already running before it —
  /// the watts a completion, crash or repair handed to the survivors.
  Watts redistributed_watts{};
  /// The full draw timeline, one sample per event boundary — what the
  /// cap-invariant tests replay.  draw <= cap at every sample is
  /// enforced with GEARSIM_ENSURE inside schedule() as well.
  std::vector<PowerSample> power_timeline;

  [[nodiscard]] Joules total_energy() const {
    return job_energy + idle_energy + wasted_energy;
  }
  /// The completed run of `job_id` (the re-run, for a job killed by an
  /// outage earlier).  Throws ContractError if the job never completed.
  [[nodiscard]] const BatchPlacement& placement(
      const std::string& job_id) const;
};

/// Event-driven multi-job scheduler under a site power cap.  schedule()
/// is const and deterministic; `metrics`, when given, receives the
/// sim-domain counters sched.arbitrations, sched.preemptions and the
/// gauges sched.cap.headroom (minimum observed) and
/// sched.redistributed_watts.
class BatchScheduler {
 public:
  explicit BatchScheduler(Machine machine, BatchOptions options = {});

  /// Schedule `jobs` (arrival times from their scripts) with optional
  /// node outages.  Throws ContractError when a job cannot run on the
  /// empty machine at any width/gear, or when an unrepaired outage
  /// leaves queued jobs unplaceable forever.
  [[nodiscard]] BatchResult schedule(
      const std::vector<BatchJob>& jobs,
      const std::vector<NodeOutage>& outages = {},
      obs::MetricsRegistry* metrics = nullptr) const;

  [[nodiscard]] const Machine& machine() const { return machine_; }
  [[nodiscard]] const BatchOptions& options() const { return options_; }

 private:
  Machine machine_;
  BatchOptions options_;
};

}  // namespace gearsim::sched
