// The policy-evaluation harness: every gear strategy the repo knows,
// raced on equal terms.
//
// For one (workload, node count) the evaluator runs the paper's static
// uniform-gear sweep (the Figure-2 curve), derives the application's
// per-gear slowdown ladder from it, then runs the full adaptive roster —
// node-bottleneck static planning, naive comm-downshift, COUNTDOWN-style
// timeout downshift, Jitter/Adagio-style slack reclamation — through the
// same exec::SweepRunner (cached, parallel, deterministic).  The result
// is a Pareto-annotated table plus a paper-style energy-time figure with
// the adaptive points overlaid on the static curve.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/config.hpp"
#include "cluster/dvfs.hpp"
#include "cluster/experiment.hpp"
#include "exec/result_cache.hpp"
#include "obs/metrics.hpp"
#include "report/svg_plot.hpp"

namespace gearsim::policy {

/// One adaptive (or planned) policy's measurement.
struct PolicyRow {
  std::string name;
  std::string signature;  ///< Canonical policy signature (cache identity).
  cluster::RunResult result;
  /// Fractional deltas vs the static gear-0 run: wall/wall_0 - 1 and
  /// energy/energy_0 - 1.
  double time_delta = 0.0;
  double energy_delta = 0.0;
  /// True when no *static* gear point is both faster and cheaper — the
  /// policy adds a point the uniform-gear tradeoff cannot reach.
  bool on_frontier = false;
};

/// Everything evaluate() measures for one (workload, nodes) cell.
struct Evaluation {
  std::string workload;
  int nodes = 0;
  /// Uniform-gear sweep, fastest first (the static baseline curve).
  std::vector<cluster::RunResult> static_runs;
  /// Slowdown ladder S_g derived from static_runs (see slowdown_ladder).
  std::vector<double> gear_slowdowns;
  std::vector<PolicyRow> policies;
};

class PolicyEvaluator {
 public:
  struct Options {
    /// Worker threads, as exec::SweepOptions::jobs (see
    /// exec::resolve_jobs).
    int jobs = 0;
    /// Optional result cache shared with other sweeps.  Not owned.
    exec::ResultCache* cache = nullptr;
    /// Optional fault plan applied to every run (must outlive the call).
    const faults::FaultPlan* faults = nullptr;
    /// Optional metrics registry, forwarded to the underlying
    /// exec::SweepRunner (not owned; see exec::SweepOptions::metrics).
    obs::MetricsRegistry* metrics = nullptr;
    /// Safety factor handed to the bottleneck planner and SlackReclaimer.
    double safety = 0.9;
    /// SlackReclaimer's performance-loss budget.
    double perf_budget = 0.05;
    /// TimeoutDownshift's (and the reclaimer's park) timeout.
    Seconds timeout = microseconds(500.0);
  };

  PolicyEvaluator(cluster::ClusterConfig config, Options options);
  /// Default options.  (A separate overload because a nested struct's
  /// member initializers are not yet parsed where `Options options = {}`
  /// would need them.)
  explicit PolicyEvaluator(cluster::ClusterConfig config);

  [[nodiscard]] const cluster::ClusterConfig& config() const {
    return config_;
  }

  /// Run the whole roster on one (workload, nodes) cell.
  [[nodiscard]] Evaluation evaluate(const cluster::Workload& workload,
                                    int nodes) const;

 private:
  cluster::ClusterConfig config_;
  Options options_;
};

/// One roster member: a display name plus the factory that builds its
/// per-run policy instances.
struct RosterEntry {
  std::string name;
  cluster::PolicyFactory factory;
};

/// The adaptive lineup evaluate() races, derived from the static sweep
/// (the bottleneck planner and the slack reclaimer consume its slowdown
/// ladder).  Exposed so other executors — the what-if service's race
/// queries — field the exact same roster and stay result-identical to
/// `gearsim policy`.
[[nodiscard]] std::vector<RosterEntry> policy_roster(
    const cluster::ClusterConfig& config,
    const std::vector<cluster::RunResult>& static_runs,
    const PolicyEvaluator::Options& options);

/// One raced policy's raw measurement, before delta/frontier annotation.
struct PolicyRun {
  std::string name;
  std::string signature;
  cluster::RunResult result;
};

/// Assemble the Evaluation record from raw runs: derives the slowdown
/// ladder, the time/energy deltas vs the fastest static gear, and the
/// frontier markers.  Shared by evaluate() and by clients reassembling a
/// remote race response, so both annotate identically.
[[nodiscard]] Evaluation assemble_evaluation(
    std::string workload_name, int nodes,
    std::vector<cluster::RunResult> static_runs,
    std::vector<PolicyRun> policy_runs);

/// Per-gear slowdown ladder from a static gear sweep: S_g is the ratio
/// of the critical rank's active time at gear g to gear 0 (clamped
/// non-decreasing).  Measures the *application's* sensitivity — a
/// memory-bound code has a ladder much flatter than the frequency ratio.
[[nodiscard]] std::vector<double> slowdown_ladder(
    const std::vector<cluster::RunResult>& static_runs);

/// Fixed-width text table: static gear points then policy rows, with
/// deltas vs gear 0 and a frontier marker per policy.
[[nodiscard]] std::string policy_table(const Evaluation& eval);

/// Paper-style energy-time figure: the static curve (gear labels on the
/// points) plus one single-point series per policy.
[[nodiscard]] report::SvgPlot policy_figure(const std::string& title,
                                            const Evaluation& eval);

}  // namespace gearsim::policy
