// The parallel sweep executor.
//
// A sweep is a list of independent (workload, nodes, gear, rep) points
// over one ClusterConfig.  SweepRunner fans them out over a fixed pool
// of worker threads (util/parallel.hpp) — each in-flight point owns its
// whole simulation (engine, meters, world), so workers never share
// mutable state — and returns results in request order.  Because every
// point's RNG streams derive from the (config, point) tuple and never
// from a shared generator, the output is bit-identical to a serial loop
// regardless of job count or scheduling (regression-tested in
// tests/exec_test.cpp).
//
// An optional ResultCache short-circuits points that were already
// simulated — by this process or, with a disk store, by any earlier
// one.  See docs/EXECUTOR.md.
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/dvfs.hpp"
#include "cluster/experiment.hpp"
#include "exec/result_cache.hpp"

namespace gearsim::exec {

/// One independent simulation point of a sweep.
struct SweepPoint {
  const cluster::Workload* workload = nullptr;  ///< Must outlive the sweep.
  int nodes = 1;
  std::size_t gear_index = 0;
  /// Repetition index: the point runs with (config.seed + rep,
  /// jitter_seed + rep), matching ExperimentRunner::run_repeated.
  int rep = 0;
  /// Optional DVFS policy; overrides gear_index when set (must outlive
  /// the sweep).  A *factory* rather than a policy instance because
  /// adaptive controllers carry per-run state: the runner instantiates a
  /// fresh policy for every point, so concurrent points never share one.
  /// The factory's signature() joins the cache key — see
  /// exec/cache_key.hpp.
  const cluster::PolicyFactory* policy = nullptr;
};

struct SweepOptions {
  /// Worker threads: 0 = GEARSIM_SWEEP_JOBS or serial, <0 = hardware
  /// concurrency (util/parallel.hpp resolve_jobs).
  int jobs = 0;
  /// Optional result cache; null = simulate every point.  Not owned.
  ResultCache* cache = nullptr;
  /// Optional fault plan applied to every point (must outlive the call).
  const faults::FaultPlan* faults = nullptr;
  /// Optional metrics registry (not owned; must outlive the call).  Each
  /// simulated point gets a private registry (workers never touch this
  /// one) and the per-point snapshots fold in *in request order* after
  /// the pool drains, so every sim-domain value is bit-identical for any
  /// job count.  Cache hits contribute exec.cache.hits instead of sim
  /// metrics — a hit never re-simulates.  When the registry has wall
  /// profiling enabled, per-point wall durations and pool utilization
  /// are recorded too (kWall domain, never deterministic).
  obs::MetricsRegistry* metrics = nullptr;
};

class SweepRunner {
 public:
  explicit SweepRunner(cluster::ClusterConfig config,
                       SweepOptions options = {});

  [[nodiscard]] const cluster::ClusterConfig& config() const {
    return config_.config();
  }
  [[nodiscard]] const SweepOptions& options() const { return options_; }

  /// Run every point (cache hits skipped, misses simulated in parallel);
  /// results in request order, bit-identical to a serial loop.
  [[nodiscard]] std::vector<cluster::RunResult> run(
      const std::vector<SweepPoint>& points) const;

  /// All gears at one node count, fastest first (the paper's energy-time
  /// curve).  Equivalent to ExperimentRunner::gear_sweep plus caching.
  [[nodiscard]] std::vector<cluster::RunResult> gear_sweep(
      const cluster::Workload& workload, int nodes) const;

  /// The full (gears × node counts) grid in row-major (nodes-major)
  /// order — the paper's Figure-2 family of curves in one call.
  [[nodiscard]] std::vector<cluster::RunResult> grid(
      const cluster::Workload& workload,
      const std::vector<int>& node_counts) const;

  /// `repetitions` reps of one point (rep r = seeds + r), in rep order.
  [[nodiscard]] std::vector<cluster::RunResult> repeat(
      const cluster::Workload& workload, int nodes, std::size_t gear_index,
      int repetitions) const;

  /// Validate one point against the config; throws ContractError on a
  /// null workload or out-of-range nodes/gear/rep.  run() applies this to
  /// the whole list up front (a bad point fails before any simulation
  /// time is spent); SweepSupervisor applies it per job instead, so one
  /// bad point fails alone.
  void validate_point(const SweepPoint& p) const;

  /// The point's content-addressed cache key (full config + workload
  /// signature + coordinates + fault plan + policy identity).  The point
  /// must be valid.
  [[nodiscard]] CacheKey point_key(const SweepPoint& p) const;

  /// Simulate one validated point — no cache or sweep-level-metrics
  /// interaction.  When `point_metrics` is non-null the run is
  /// instrumented into it (callers fold per-point snapshots in request
  /// order, preserving the determinism contract).  Thread-safe:
  /// concurrent calls share nothing mutable.
  [[nodiscard]] cluster::RunResult simulate_point(
      const SweepPoint& p, obs::MetricsRegistry* point_metrics) const;

  /// Cache statistics (zeroes when no cache is attached).
  [[nodiscard]] CacheStats cache_stats() const;

 private:
  cluster::ExperimentRunner config_;
  SweepOptions options_;
};

}  // namespace gearsim::exec
