// The sweep executor.
//
// A sweep is a list of independent (workload, nodes, gear, rep) points
// over one ClusterConfig.  SweepRunner fans them out over up to
// SweepOptions::jobs threads — each in-flight point owns its whole
// simulation (engine, meters, world), so workers never share mutable
// state — and returns results in request order.  It is the library's
// only sweep fan-out; ExperimentRunner::gear_sweep is a serial loop.
// Because every point's RNG streams derive from the (config, point)
// tuple and never from a shared generator, the output is bit-identical
// to a serial loop regardless of job count or scheduling
// (regression-tested in tests/exec_test.cpp).
//
// An optional ResultCache short-circuits points that were already
// simulated — by this process or, with a disk store, by any earlier
// one.  See docs/EXECUTOR.md.
//
// The entry points share one per-point loop: validate, probe the cache,
// run the attempt/retry loop under exception isolation, then fold
// results and metrics in request order.  A failure — thrown by the
// simulation, the cache, or a failpoint — is caught, classified
// (transient vs permanent), retried up to SweepOptions::max_attempts
// times when transient, and recorded as a JobFailure; no failure stops
// the other points.  run_isolated() returns every completed result plus
// the failure report; run_misses() does the same for points its caller
// has validated and probed already, skipping those two steps.  run()
// validates the whole list first, finishes every point, then rethrows
// the lowest-index failure's exception.  A per-point wall-clock watchdog
// flags (never kills) points slower than SweepOptions::watchdog_seconds.
// Failpoints in util/failpoint.hpp key off the point index, so failure
// schedules replay exactly under any worker count.  See
// docs/RESILIENCE.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
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
  /// jitter_seed + rep), the simulation analogue of the paper's repeated
  /// wall-outlet measurements.
  int rep = 0;
  /// Optional DVFS policy; overrides gear_index when set (must outlive
  /// the sweep).  A *factory* rather than a policy instance because
  /// adaptive controllers carry per-run state: the runner instantiates a
  /// fresh policy for every point, so concurrent points never share one.
  /// The factory's signature() joins the cache key — see
  /// exec/cache_key.hpp.
  const cluster::PolicyFactory* policy = nullptr;
};

/// Thrown (by failpoints, I/O layers, or user workloads) to mark a
/// failure worth retrying: the condition is environmental, not a
/// deterministic property of the config.  classify_failure treats this
/// type — and std::system_error / std::ios_base::failure — as transient;
/// everything else (ContractError, SimulationError, ...) as permanent,
/// because an identical re-run of a deterministic simulation can only
/// fail identically.
class TransientError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Default worker count for a sweep: the GEARSIM_SWEEP_JOBS environment
/// variable when it holds a positive integer that fits an int, else 1
/// (serial).  Serial by default keeps library entry points free of
/// surprise threads; the CLI and the daemon pass an explicit count.
[[nodiscard]] int default_jobs();

/// Resolve SweepOptions::jobs: 0 means default_jobs(), a negative value
/// the hardware concurrency (at least 1), a positive value itself.
[[nodiscard]] int resolve_jobs(int jobs);

enum class FailureKind { kTransient, kPermanent };
const char* to_string(FailureKind kind);

/// The executor's classification (see TransientError).
[[nodiscard]] FailureKind classify_failure(const std::exception& e);

/// One point's terminal failure, after retries were exhausted
/// (transient) or skipped (permanent).
struct JobFailure {
  std::size_t index = 0;  ///< Position in the submitted point list.
  std::string point;      ///< Human-readable point description.
  std::string key;        ///< Cache-key hash hex ("" without a cache or
                          ///< for points that failed validation).
  int attempts = 0;       ///< Simulation attempts made (0 = failed
                          ///< validation before any attempt).
  FailureKind kind = FailureKind::kPermanent;  ///< Last failure's class.
  std::string error;      ///< Last attempt's exception text.
  double wall_seconds = 0.0;  ///< Wall time spent across all attempts.
};

/// Everything an isolated sweep produced.
struct SweepOutcome {
  /// Index-aligned with the submitted points; nullopt = that point failed
  /// (its JobFailure is in `failures`).
  std::vector<std::optional<cluster::RunResult>> results;
  /// Terminal failures, ordered by point index.
  std::vector<JobFailure> failures;
  /// Points whose wall time exceeded the watchdog threshold (completed
  /// or failed), ordered by point index.  Wall-clock derived: never
  /// compare across runs.
  std::vector<std::size_t> runaway;
  /// Total retry attempts across all points (attempts beyond each
  /// point's first).
  std::uint64_t retries = 0;

  [[nodiscard]] bool ok() const { return failures.empty(); }
  [[nodiscard]] std::size_t completed() const;
  /// Human-readable failure report (one line per failure; "" when ok).
  [[nodiscard]] std::string report() const;
};

struct SweepOptions {
  /// Worker threads: 0 = GEARSIM_SWEEP_JOBS or serial, <0 = hardware
  /// concurrency (see resolve_jobs).
  int jobs = 0;
  /// Optional result cache; null = simulate every point.  Not owned.
  ResultCache* cache = nullptr;
  /// Optional fault plan applied to every point.  It must outlive the
  /// runner and not change after the runner is built: the runner renders
  /// it into its cache keys once, at construction.
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
  /// Max simulation attempts per point (>= 1); only transient failures
  /// retry, immediately.
  int max_attempts = 1;
  /// Flag points whose total wall time exceeds this; 0 = watchdog off.
  double watchdog_seconds = 0.0;
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
  /// results in request order, bit-identical to a serial loop.  The
  /// whole list is validated first, so a bad point throws ContractError
  /// before any simulation or cache traffic.  A point that fails later
  /// does not stop the others: every point finishes (and is cached),
  /// then the lowest-index failure's exception is rethrown.
  [[nodiscard]] std::vector<cluster::RunResult> run(
      const std::vector<SweepPoint>& points) const;

  /// Run every point under per-point isolation and return what completed
  /// plus the failure report; throws only for an internal error of the
  /// executor itself.  A point that fails validation fails alone.
  [[nodiscard]] SweepOutcome run_isolated(
      const std::vector<SweepPoint>& points) const;

  /// run_isolated for points the caller has already validated and found
  /// missing from the cache under `keys` (index-aligned, from point_key):
  /// no validation and no probe; each result is inserted under its key.
  /// The daemon's leader path, which probes and claims every key itself.
  [[nodiscard]] SweepOutcome run_misses(
      const std::vector<SweepPoint>& points,
      const std::vector<CacheKey>& keys) const;

  /// All gears at one node count, fastest first (the paper's energy-time
  /// curve).  Equivalent to ExperimentRunner::gear_sweep plus caching and
  /// fan-out.
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
  /// null workload or out-of-range nodes/gear/rep.
  void validate_point(const SweepPoint& p) const;

  /// The point's content-addressed cache key (full config + workload
  /// signature + coordinates + fault plan + policy identity), equal to
  /// sweep_point_key's.  The config and fault plan were rendered once at
  /// construction, so this builds only the point's suffix.  The point
  /// must be valid.
  [[nodiscard]] CacheKey point_key(const SweepPoint& p) const;
  /// The same, with the point's p.workload->signature() passed in, for
  /// callers keying many points of one workload.
  [[nodiscard]] CacheKey point_key(const SweepPoint& p,
                                   std::string_view workload_signature) const;

  /// Cache statistics (zeroes when no cache is attached).
  [[nodiscard]] CacheStats cache_stats() const;

 private:
  /// The shared per-point loop behind run(), run_isolated() and
  /// run_misses().  `missed_keys` is null, or run_misses' keys: then the
  /// validation and probe steps are skipped.  When `first_error` is
  /// non-null it receives the lowest-index failure's exception (null
  /// when every point completed).
  SweepOutcome execute(const std::vector<SweepPoint>& points,
                       const std::vector<CacheKey>* missed_keys,
                       std::exception_ptr* first_error) const;

  /// Simulate one validated point into `point_metrics` (may be null).
  /// Thread-safe: concurrent calls share nothing mutable.
  [[nodiscard]] cluster::RunResult simulate_point(
      const SweepPoint& p, obs::MetricsRegistry* point_metrics) const;

  cluster::ExperimentRunner config_;
  SweepOptions options_;
  PointKeyer keyer_;  ///< Over config_ and options_.faults.
};

}  // namespace gearsim::exec
