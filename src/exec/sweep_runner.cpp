#include "exec/sweep_runner.hpp"

#include <chrono>
#include <memory>
#include <utility>

#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace gearsim::exec {

SweepRunner::SweepRunner(cluster::ClusterConfig config, SweepOptions options)
    : config_(std::move(config)), options_(options) {}

void SweepRunner::validate_point(const SweepPoint& p) const {
  const cluster::ClusterConfig& base = config_.config();
  GEARSIM_REQUIRE(p.workload != nullptr, "sweep point without a workload");
  GEARSIM_REQUIRE(p.nodes >= 1 && p.nodes <= base.max_nodes,
                  "sweep point node count out of range");
  GEARSIM_REQUIRE(p.gear_index < base.gears.size(),
                  "sweep point gear out of range");
  GEARSIM_REQUIRE(p.rep >= 0, "sweep point repetition must be >= 0");
}

CacheKey SweepRunner::point_key(const SweepPoint& p) const {
  return sweep_point_key(
      config_.config(), p.workload->signature(), p.nodes, p.gear_index, p.rep,
      options_.faults,
      p.policy != nullptr ? p.policy->signature() : std::string());
}

cluster::RunResult SweepRunner::simulate_point(
    const SweepPoint& p, obs::MetricsRegistry* point_metrics) const {
  const cluster::ClusterConfig& base = config_.config();
  cluster::RunOptions run_options;
  run_options.gear_index = p.gear_index;
  run_options.faults = options_.faults;
  run_options.metrics = point_metrics;
  // A fresh policy instance per point: adaptive controllers carry
  // per-run state, and concurrent workers must never share one.
  std::unique_ptr<cluster::GearPolicy> policy;
  if (p.policy != nullptr) {
    policy = p.policy->instantiate(p.nodes);
    run_options.policy = policy.get();
  }
  if (p.rep == 0) {
    return config_.run(*p.workload, p.nodes, run_options);
  }
  // Repetition r is the same point under shifted seeds — identical
  // to ExperimentRunner::run_repeated's convention.
  cluster::ClusterConfig shifted = base;
  shifted.seed = base.seed + static_cast<std::uint64_t>(p.rep);
  shifted.network.jitter_seed =
      base.network.jitter_seed + static_cast<std::uint64_t>(p.rep);
  const cluster::ExperimentRunner sub(shifted);
  return sub.run(*p.workload, p.nodes, run_options);
}

std::vector<cluster::RunResult> SweepRunner::run(
    const std::vector<SweepPoint>& points) const {
  // Validate everything up front: a bad point must fail before any
  // simulation time (or cache traffic) is spent.
  for (const SweepPoint& p : points) validate_point(p);

  std::vector<cluster::RunResult> results(points.size());
  std::vector<CacheKey> keys(options_.cache != nullptr ? points.size() : 0);
  std::vector<std::size_t> misses;
  misses.reserve(points.size());

  if (options_.cache != nullptr) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      keys[i] = point_key(points[i]);
      if (auto hit = options_.cache->lookup(keys[i])) {
        results[i] = *hit;
      } else {
        misses.push_back(i);
      }
    }
  } else {
    for (std::size_t i = 0; i < points.size(); ++i) misses.push_back(i);
  }

  // Sweep-level bookkeeping happens on the calling thread only; workers
  // write per-point registries / per-slot arrays, never `reg` itself.
  obs::MetricsRegistry* const reg = options_.metrics;
  const CacheStats stats_before = cache_stats();
  if (reg != nullptr) {
    reg->counter("exec.sweep.points").add(points.size());
    if (options_.cache != nullptr) {
      reg->counter("exec.cache.hits").add(points.size() - misses.size());
      reg->counter("exec.cache.misses").add(misses.size());
      reg->counter("exec.cache.insertions").add(misses.size());
    }
  }
  std::vector<obs::MetricsSnapshot> point_metrics(
      reg != nullptr ? misses.size() : 0);
  // Wall profiling: per-point durations land in a per-index slot (no
  // races), folded into the registry after the pool drains.
  const bool wall = reg != nullptr && reg->wall_profiling();
  std::vector<double> point_seconds(wall ? misses.size() : 0, 0.0);
  const auto sweep_start = std::chrono::steady_clock::now();

  parallel_for_ordered(options_.jobs, misses.size(), [&](std::size_t m) {
    std::chrono::steady_clock::time_point point_start;
    if (wall) point_start = std::chrono::steady_clock::now();
    const std::size_t i = misses[m];
    // A private registry per point: the engine's discipline makes each
    // point single-threaded, so no atomics are needed anywhere.
    std::unique_ptr<obs::MetricsRegistry> point_reg;
    if (reg != nullptr) point_reg = std::make_unique<obs::MetricsRegistry>();
    results[i] = simulate_point(points[i], point_reg.get());
    if (options_.cache != nullptr) {
      options_.cache->insert(keys[i], results[i]);
    }
    if (point_reg != nullptr) point_metrics[m] = point_reg->snapshot();
    if (wall) {
      point_seconds[m] = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - point_start)
                             .count();
    }
  });

  if (reg != nullptr) {
    // Request-order fold: merging snapshots in miss order (not completion
    // order) keeps every sim-domain value bit-identical for any job count.
    for (const obs::MetricsSnapshot& snap : point_metrics) reg->merge(snap);
    // Evictions are order-independent under the LRU capacity rule (each
    // insert beyond capacity evicts exactly one entry), so the delta is
    // safe to report as a sim-domain counter.
    const CacheStats stats_after = cache_stats();
    reg->counter("exec.cache.evictions")
        .add(stats_after.evictions - stats_before.evictions);
    if (wall) {
      obs::Histogram& h = *reg->wall_histogram(
          "exec.sweep.point_seconds", {0.001, 0.01, 0.1, 1.0, 10.0, 100.0});
      double busy = 0.0;
      for (double s : point_seconds) {
        h.observe(s);
        busy += s;
      }
      const double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - sweep_start)
                                 .count();
      const int jobs = resolve_jobs(options_.jobs);
      reg->wall_gauge("exec.sweep.jobs", obs::Gauge::Kind::kLast)
          ->set(static_cast<double>(jobs));
      if (elapsed > 0.0 && !point_seconds.empty()) {
        // Busy fraction of the pool: 1.0 means every worker simulated for
        // the whole sweep; low values mean queue-wait or load imbalance.
        reg->wall_gauge("exec.sweep.utilization", obs::Gauge::Kind::kLast)
            ->set(busy / (elapsed * static_cast<double>(jobs)));
      }
    }
  }

  return results;
}

std::vector<cluster::RunResult> SweepRunner::gear_sweep(
    const cluster::Workload& workload, int nodes) const {
  std::vector<SweepPoint> points;
  points.reserve(config_.num_gears());
  for (std::size_t g = 0; g < config_.num_gears(); ++g) {
    points.push_back(SweepPoint{&workload, nodes, g, 0});
  }
  return run(points);
}

std::vector<cluster::RunResult> SweepRunner::grid(
    const cluster::Workload& workload,
    const std::vector<int>& node_counts) const {
  std::vector<SweepPoint> points;
  points.reserve(node_counts.size() * config_.num_gears());
  for (int nodes : node_counts) {
    for (std::size_t g = 0; g < config_.num_gears(); ++g) {
      points.push_back(SweepPoint{&workload, nodes, g, 0});
    }
  }
  return run(points);
}

std::vector<cluster::RunResult> SweepRunner::repeat(
    const cluster::Workload& workload, int nodes, std::size_t gear_index,
    int repetitions) const {
  GEARSIM_REQUIRE(repetitions >= 1, "need at least one repetition");
  std::vector<SweepPoint> points;
  points.reserve(static_cast<std::size_t>(repetitions));
  for (int r = 0; r < repetitions; ++r) {
    points.push_back(SweepPoint{&workload, nodes, gear_index, r});
  }
  return run(points);
}

CacheStats SweepRunner::cache_stats() const {
  return options_.cache != nullptr ? options_.cache->stats() : CacheStats{};
}

}  // namespace gearsim::exec
