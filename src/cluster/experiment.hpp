// The experiment runner: executes one Workload on a configured cluster at
// one (node count, gear) point and returns everything the paper measures —
// wall time, per-node and total energy, the trace decomposition, and the
// per-gear power summary the Section-4 model consumes.
#pragma once

#include <optional>
#include <vector>

#include "cluster/config.hpp"
#include "cluster/workload.hpp"
#include "faults/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "trace/analysis.hpp"
#include "trace/fault_events.hpp"
#include "util/statistics.hpp"

namespace gearsim::cluster {

class GearPolicy;  // cluster/dvfs.hpp

/// How a (possibly fault-injected) run ended.
enum class RunOutcome {
  kCompleted,             ///< Ran to completion with no crash.
  kCompletedAfterRestart, ///< Crashed >= 1 times but checkpoint/restart won.
  kFailed,                ///< A crash was fatal (no policy, or budget spent).
};
const char* to_string(RunOutcome outcome);

/// One (workload, nodes, gear) measurement.
struct RunResult {
  int nodes = 0;
  /// The run's gear.  Uniform-gear runs: the requested gear.  Policy runs
  /// (see `policy_run`): the *modal* per-rank compute gear at the end of
  /// the run — a policy that assigns per-rank or time-varying gears has no
  /// single gear, so the modal value plus the [gear_min_index,
  /// gear_max_index] range below is the honest summary (ties break toward
  /// the faster gear).
  std::size_t gear_index = 0;
  int gear_label = 0;           ///< 1-based paper label of gear_index.
  /// True when a GearPolicy drove the run; gear_index/gear_label are then
  /// a summary, not a configuration.
  bool policy_run = false;
  /// Fastest / slowest per-rank compute gear observed at the end of the
  /// run (== gear_index for uniform runs).  For adaptive policies this
  /// reflects each rank's final gear.
  std::size_t gear_min_index = 0;
  std::size_t gear_max_index = 0;
  Seconds wall{};               ///< Execution time.
  Joules energy{};              ///< Cumulative energy of all nodes.
  Joules active_energy{};
  Joules idle_energy{};
  Watts mean_active_power{};    ///< Time-weighted over nodes: the P_g probe.
  Watts mean_idle_power{};      ///< The I_g probe.
  trace::ClusterBreakdown breakdown;
  std::vector<power::NodeEnergy> node_energy;
  std::uint64_t mpi_calls = 0;
  std::uint64_t messages = 0;
  Bytes net_bytes = 0;
  /// FNV-1a fingerprint of the engine's full event-dispatch order (see
  /// sim::Engine::order_hash).  Pure determinism probe: equal inputs must
  /// give equal hashes, for any sweep worker count and through the result
  /// cache — the regression tripwire for event-kernel changes.  Carries
  /// no physics; plots and reports never read it.
  std::uint64_t event_order_hash = 0;
  /// Always 0: every run executes on the serial engine.  Kept for
  /// callers that read them; never cached or compared.
  std::size_t engine_partitions = 0;
  std::uint64_t engine_windows = 0;
  std::uint64_t gear_switches = 0;  ///< DVFS transitions across all ranks.
  /// Seconds each rank spent at each *requested* gear (outer index rank,
  /// inner index gear; inner size == the cluster's gear count).  Covers
  /// [0, rank finish] — the tail a rank idles while slower ranks catch up
  /// is not attributed.  Straggler throttles cap the executed gear
  /// without showing up here (residency tracks policy intent; see
  /// docs/FAULTS.md).  Ranks cut short by a fatal crash leave empty
  /// entries.
  std::vector<std::vector<Seconds>> gear_residency;
  /// Cluster energy as integrated by the sampling multimeters (only when
  /// ClusterConfig::sample_power is set); compare with `energy`, which is
  /// the exact piecewise integral.  Under meter-dropout faults the
  /// trapezoid integral interpolates across the holes and
  /// `sampled_coverage` reports how much of the span was observed.
  std::optional<Joules> sampled_energy;
  /// Fraction of the metering span the sampling meters observed (1.0
  /// without dropout faults or sampling).
  double sampled_coverage = 1.0;

  // --- fault / resilience accounting (defaults = fault-free run) ---------
  RunOutcome outcome = RunOutcome::kCompleted;
  /// Crashes absorbed by checkpoint/restart.
  int retries = 0;
  /// Wall time / energy beyond the crash-free (but checkpointed) run:
  /// lost work re-executed plus restart overhead.
  Seconds rework_time{};
  Joules rework_energy{};
  /// Crash-free cost of writing the checkpoints themselves.
  Seconds checkpoint_time{};
  Joules checkpoint_energy{};
  /// The crash that ended a kFailed run.
  std::optional<faults::CrashEvent> fatal_crash;
  /// Message retransmissions forced by link-degradation faults.
  std::uint64_t retransmissions = 0;
  /// Every fault realized during the run, in the order recorded (also
  /// rendered into the trace CSV / timeline SVG exports when requested).
  trace::FaultLog fault_events;
};

/// Knobs for one experiment beyond the paper's uniform-gear scope.
struct RunOptions {
  /// Uniform gear when no policy is given.
  std::size_t gear_index = 0;
  /// Optional DVFS policy (per-rank gears, comm downshift, or adaptive
  /// control); overrides gear_index.  Must outlive the call.  Non-const
  /// because adaptive controllers mutate per-rank state through the
  /// engine-time callbacks; the runner calls begin_run() first, which
  /// resets that state.  A stateful policy instance must not be shared
  /// by concurrent runs (exec::SweepRunner instantiates one per point
  /// via PolicyFactory).
  GearPolicy* policy = nullptr;
  /// When non-empty, the run's full MPI trace is exported here as CSV
  /// (one row per call; see trace::export_csv).
  std::string trace_csv_path;
  /// When non-empty, the run's per-rank activity timeline is rendered
  /// here as SVG (see report::write_timeline).
  std::string timeline_svg_path;
  /// Optional fault plan realized against this run (must outlive the
  /// call).  Null — or a plan with nothing scheduled — leaves the run
  /// bit-identical to a fault-free one.  See docs/FAULTS.md.
  const faults::FaultPlan* faults = nullptr;
  /// Optional metrics registry (must outlive the call).  The engine,
  /// network and policy count natively; the runner publishes their totals
  /// and its own cluster/fault counts here once, after a run that returns
  /// a RunResult (completed or crash-aborted).  A run that throws
  /// publishes nothing.  All values are sim-domain facts, so attaching a
  /// registry never changes the RunResult.  One registry must not be
  /// shared by concurrent runs — exec::SweepRunner gives each point its
  /// own and merges the snapshots in request order.  See
  /// docs/OBSERVABILITY.md.
  obs::MetricsRegistry* metrics = nullptr;
  /// Ignored: every run executes on the serial engine.  Kept so existing
  /// callers that set it still compile.
  int engine_threads = 0;
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(ClusterConfig config);

  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] std::size_t num_gears() const { return config_.gears.size(); }

  /// Run `workload` on `nodes` nodes, all at gear `gear_index` (0-based).
  /// Thread-safe: a run touches only its own engine/meter/world, so
  /// independent runs may execute concurrently on one runner.
  RunResult run(const Workload& workload, int nodes,
                std::size_t gear_index) const;

  /// Run with full options (per-rank gears / dynamic DVFS policies).
  /// Concurrent calls must not share a stateful GearPolicy instance.
  RunResult run(const Workload& workload, int nodes,
                const RunOptions& options) const;

  /// Run at every gear of the cluster; results ordered fastest-first.
  /// This is one curve of the paper's energy-time plots.  A plain serial
  /// loop over run(); repetitions, caching and parallel fan-out live in
  /// exec::SweepRunner.
  std::vector<RunResult> gear_sweep(const Workload& workload, int nodes) const;

 private:
  ClusterConfig config_;
};

/// Speedup of `slow_nodes`-vs-`fast_nodes` runs at the fastest gear:
/// T(a) / T(b).  Degenerate denominators are rejected, not absorbed:
/// b.wall <= 0 (an empty or failed run) throws ContractError, matching
/// rel_diff.
double speedup(const RunResult& a, const RunResult& b);

}  // namespace gearsim::cluster
