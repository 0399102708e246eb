#include "exec/sweep_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <memory>
#include <sstream>
#include <system_error>
#include <thread>
#include <type_traits>
#include <utility>

#include "obs/metrics.hpp"
#include "util/assert.hpp"
#include "util/failpoint.hpp"

namespace gearsim::exec {

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

std::string describe_point(const SweepPoint& p) {
  std::ostringstream os;
  os << (p.workload != nullptr ? p.workload->name() : std::string("<null>"))
     << " nodes=" << p.nodes << " gear=" << p.gear_index + 1
     << " rep=" << p.rep;
  if (p.policy != nullptr) os << " policy=" << p.policy->signature();
  return os.str();
}

/// Run body(0) .. body(n-1): the sweep's only thread fan-out.  Inline on
/// the calling thread, in index order, when `jobs <= 1` or `n <= 1`;
/// otherwise min(jobs, n) threads claim indices from an atomic counter,
/// so completion order is arbitrary and callers index their output by
/// `i`.  The body cannot throw, so every index runs exactly once whatever
/// its neighbours do, and every thread is joined before this returns,
/// also when the system refuses to start one.
template <typename Body>
void fan_out(int jobs, std::size_t n, const Body& body) {
  static_assert(std::is_nothrow_invocable_v<const Body&, std::size_t>,
                "the fan-out body must catch everything it throws");
  if (jobs <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      body(i);
    }
  };
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(jobs), n);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  try {
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
  } catch (const std::system_error&) {
    worker();  // No more threads to be had: drain the rest here.
  }
  for (std::thread& t : pool) t.join();
}

/// Mutable per-point scratch; index-aligned with the submitted points,
/// so workers write disjoint slots and the calling thread folds in
/// request order after the pool drains.
struct JobState {
  bool valid = false;  ///< Passed validate_point.
  bool cache_hit = false;
  int attempts = 0;
  FailureKind kind = FailureKind::kPermanent;
  std::string error;
  std::exception_ptr eptr;
  double wall_seconds = 0.0;
  obs::MetricsSnapshot snapshot;  ///< Simulated points only.
};

}  // namespace

int default_jobs() {
  const char* env = std::getenv("GEARSIM_SWEEP_JOBS");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  const long parsed = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || parsed < 1 ||
      parsed > std::numeric_limits<int>::max()) {
    return 1;
  }
  return static_cast<int>(parsed);
}

int resolve_jobs(int jobs) {
  if (jobs == 0) return default_jobs();
  if (jobs < 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
  return jobs;
}

const char* to_string(FailureKind kind) {
  return kind == FailureKind::kTransient ? "transient" : "permanent";
}

FailureKind classify_failure(const std::exception& e) {
  // Retry only conditions that a re-run can plausibly clear.  A
  // deterministic simulation that threw (ContractError, SimulationError,
  // a workload bug) will throw identically on every attempt.
  if (dynamic_cast<const TransientError*>(&e) != nullptr ||
      dynamic_cast<const std::system_error*>(&e) != nullptr ||
      dynamic_cast<const std::ios_base::failure*>(&e) != nullptr) {
    return FailureKind::kTransient;
  }
  return FailureKind::kPermanent;
}

std::size_t SweepOutcome::completed() const {
  std::size_t n = 0;
  for (const auto& r : results) {
    if (r.has_value()) ++n;
  }
  return n;
}

std::string SweepOutcome::report() const {
  std::ostringstream os;
  for (const JobFailure& f : failures) {
    os << "job #" << f.index << " (" << f.point << "): " << f.error << " ["
       << to_string(f.kind) << ", attempts=" << f.attempts;
    if (!f.key.empty()) os << ", key=" << f.key;
    os << "]\n";
  }
  return os.str();
}

SweepRunner::SweepRunner(cluster::ClusterConfig config, SweepOptions options)
    : config_(std::move(config)),
      options_(options),
      keyer_(config_.config(), options_.faults) {
  GEARSIM_REQUIRE(options_.max_attempts >= 1,
                  "sweep needs at least one attempt per point");
  GEARSIM_REQUIRE(options_.watchdog_seconds >= 0.0,
                  "watchdog threshold must be >= 0");
}

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
  return point_key(p, p.workload->signature());
}

CacheKey SweepRunner::point_key(const SweepPoint& p,
                                std::string_view workload_signature) const {
  return keyer_.key(workload_signature, p.nodes, p.gear_index, p.rep,
                    p.policy != nullptr ? std::string_view(p.policy->signature())
                                        : std::string_view());
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
  // Repetition r is the same point under shifted seeds, (seed + r,
  // jitter_seed + r): the one place the repetition rule lives.
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
  std::exception_ptr first_error;
  SweepOutcome outcome = execute(points, nullptr, &first_error);
  // Every point has drained (and its result is cached); surface the
  // failure a serial loop would have hit first.
  if (first_error) std::rethrow_exception(first_error);
  std::vector<cluster::RunResult> results;
  results.reserve(outcome.results.size());
  for (auto& r : outcome.results) results.push_back(std::move(*r));
  return results;
}

SweepOutcome SweepRunner::run_isolated(
    const std::vector<SweepPoint>& points) const {
  return execute(points, nullptr, nullptr);
}

SweepOutcome SweepRunner::run_misses(const std::vector<SweepPoint>& points,
                                     const std::vector<CacheKey>& keys) const {
  GEARSIM_REQUIRE(keys.size() == points.size(),
                  "run_misses needs one key per point");
  return execute(points, &keys, nullptr);
}

SweepOutcome SweepRunner::execute(const std::vector<SweepPoint>& points,
                                  const std::vector<CacheKey>* missed_keys,
                                  std::exception_ptr* first_error) const {
  const std::size_t n = points.size();
  ResultCache* const cache = options_.cache;
  // Sweep-level bookkeeping happens on the calling thread only; workers
  // write per-point registries / per-slot state, never `reg` itself.
  obs::MetricsRegistry* const reg = options_.metrics;

  SweepOutcome outcome;
  outcome.results.resize(n);
  std::vector<JobState> jobs(n);
  // run_misses' caller validated and probed the points already, under
  // `missed_keys`; otherwise the keys are built here, one per point.
  const bool probe = missed_keys == nullptr;
  std::vector<CacheKey> own_keys(probe && cache != nullptr ? n : 0);
  const std::vector<CacheKey>& keys = probe ? own_keys : *missed_keys;
  std::vector<std::size_t> pending;
  pending.reserve(n);

  // Steps 1 and 2, calling thread: validate each point (a bad point fails
  // alone) and probe the cache.
  const cluster::Workload* signed_workload = nullptr;
  std::string signature;
  for (std::size_t i = 0; i < n; ++i) {
    const SweepPoint& p = points[i];
    if (probe) {
      try {
        validate_point(p);
      } catch (const std::exception& e) {
        jobs[i].error = e.what();
        jobs[i].eptr = std::current_exception();
        continue;
      }
    }
    jobs[i].valid = true;
    if (probe && cache != nullptr) {
      // Sweeps list many points of one workload: sign it once.
      if (p.workload != signed_workload) {
        signature = p.workload->signature();
        signed_workload = p.workload;
      }
      own_keys[i] = point_key(p, signature);
      if (auto hit = cache->lookup(own_keys[i])) {
        outcome.results[i] = std::move(*hit);
        jobs[i].cache_hit = true;
        continue;
      }
    }
    pending.push_back(i);
  }
  const CacheStats stats_before = cache_stats();

  // One point's attempt/retry loop.  Exceptions from an attempt are
  // absorbed into the JobState here; anything thrown past this function
  // (allocation failure, the escape failpoint) is caught by the outer
  // handler at the call site.
  const auto run_attempts = [&](JobState& job, std::size_t i) {
    const auto index = static_cast<std::int64_t>(i);
    // Failpoint modeling an exception that escapes the per-attempt
    // handling — the class of bug the outer catch exists for.
    if (util::failpoint("exec.supervisor.job.escape", index)) {
      throw SimulationError(
          "failpoint exec.supervisor.job.escape fired for job " +
          std::to_string(i));
    }
    for (int attempt = 1;; ++attempt) {
      job.attempts = attempt;
      const SteadyClock::time_point start = SteadyClock::now();
      try {
        // Failpoints (deterministic, keyed by point index; see
        // docs/RESILIENCE.md).  job.slow's arg is a sleep in
        // milliseconds — the watchdog test's runaway config.
        if (util::failpoint("exec.supervisor.job.throw", index)) {
          throw TransientError(
              "failpoint exec.supervisor.job.throw fired for job " +
              std::to_string(i));
        }
        if (util::failpoint("exec.supervisor.job.throw_permanent", index)) {
          throw SimulationError(
              "failpoint exec.supervisor.job.throw_permanent fired "
              "for job " +
              std::to_string(i));
        }
        if (const auto ms =
                util::failpoint("exec.supervisor.job.slow", index)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(*ms));
        }
        // A private registry per point: the engine's discipline makes
        // each point single-threaded, so no atomics are needed anywhere.
        std::unique_ptr<obs::MetricsRegistry> point_reg;
        if (reg != nullptr) {
          point_reg = std::make_unique<obs::MetricsRegistry>();
        }
        cluster::RunResult result = simulate_point(points[i], point_reg.get());
        if (cache != nullptr) cache->insert(keys[i], result);
        job.wall_seconds += seconds_since(start);
        if (point_reg != nullptr) job.snapshot = point_reg->snapshot();
        outcome.results[i] = std::move(result);
        return;
      } catch (const std::exception& e) {
        job.wall_seconds += seconds_since(start);
        job.error = e.what();
        job.eptr = std::current_exception();
        job.kind = classify_failure(e);
      } catch (...) {
        job.wall_seconds += seconds_since(start);
        job.error = "unknown exception";
        job.eptr = std::current_exception();
        job.kind = FailureKind::kPermanent;
      }
      if (job.kind != FailureKind::kTransient ||
          attempt >= options_.max_attempts) {
        return;  // Terminal: permanent, or retry budget exhausted.
      }
    }
  };

  // Step 3, fan-out: every pending point under exception isolation.
  // Nothing escapes the body, so every point gets its turn regardless of
  // its neighbours' fate and keeps its step-4 bookkeeping (watchdog flag,
  // JobFailure record).  run_attempts' inner try does not cover
  // everything — the error-string copy in its handler may throw too — so
  // the outer catch turns any escape into a recorded permanent failure.
  const int workers = resolve_jobs(options_.jobs);
  const auto sweep_start = SteadyClock::now();
  fan_out(workers, pending.size(), [&](std::size_t m) noexcept {
    const std::size_t i = pending[m];
    JobState& job = jobs[i];
    try {
      run_attempts(job, i);
    } catch (const std::exception& e) {
      outcome.results[i].reset();
      job.eptr = std::current_exception();
      job.kind = FailureKind::kPermanent;
      try {
        job.error = std::string("sweep job escape: ") + e.what();
      } catch (...) {
        job.error.clear();
      }
    } catch (...) {
      outcome.results[i].reset();
      job.eptr = std::current_exception();
      job.kind = FailureKind::kPermanent;
    }
  });
  const double sweep_seconds = seconds_since(sweep_start);

  // Step 4, calling thread: fold results and metrics in request order
  // (merging snapshots in index order, not completion order, keeps every
  // sim-domain value bit-identical for any job count), build the failure
  // report, apply the watchdog.
  std::size_t cache_hits = 0;
  std::size_t simulated = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const JobState& job = jobs[i];
    if (job.attempts > 1) {
      outcome.retries += static_cast<std::uint64_t>(job.attempts - 1);
    }
    if (job.cache_hit) {
      ++cache_hits;
    } else if (outcome.results[i].has_value()) {
      ++simulated;
      if (reg != nullptr) reg->merge(job.snapshot);
    }
    if (options_.watchdog_seconds > 0.0 &&
        job.wall_seconds > options_.watchdog_seconds) {
      outcome.runaway.push_back(i);
    }
    if (!outcome.results[i].has_value()) {
      if (first_error != nullptr && !*first_error) *first_error = job.eptr;
      JobFailure failure;
      failure.index = i;
      failure.point = describe_point(points[i]);
      failure.key =
          (cache != nullptr && job.valid) ? keys[i].hex() : std::string();
      failure.attempts = job.attempts;
      failure.kind = job.kind;
      failure.error = job.error;
      failure.wall_seconds = job.wall_seconds;
      outcome.failures.push_back(std::move(failure));
    }
  }

  if (reg != nullptr) {
    reg->counter("exec.sweep.points").add(n);
    reg->counter("exec.supervisor.jobs").add(n);
    reg->counter("exec.supervisor.failures").add(outcome.failures.size());
    reg->counter("exec.supervisor.retries").add(outcome.retries);
    if (cache != nullptr) {
      reg->counter("exec.cache.hits").add(cache_hits);
      reg->counter("exec.cache.misses").add(pending.size());
      reg->counter("exec.cache.insertions").add(simulated);
    }
    // Evictions are order-independent under the LRU capacity rule (each
    // insert beyond capacity evicts exactly one entry), so the delta is
    // safe to report as a sim-domain counter.
    reg->counter("exec.cache.evictions")
        .add(cache_stats().evictions - stats_before.evictions);
    // Wall-clock derived, so never a sim-domain (comparable) metric.
    if (obs::Counter* runaway = reg->wall_counter("exec.supervisor.runaway")) {
      runaway->add(outcome.runaway.size());
    }
    if (reg->wall_profiling()) {
      obs::Histogram& h = *reg->wall_histogram(
          "exec.sweep.point_seconds", {0.001, 0.01, 0.1, 1.0, 10.0, 100.0});
      double busy = 0.0;
      for (const std::size_t i : pending) {
        h.observe(jobs[i].wall_seconds);
        busy += jobs[i].wall_seconds;
      }
      reg->wall_gauge("exec.sweep.jobs", obs::Gauge::Kind::kLast)
          ->set(static_cast<double>(workers));
      if (sweep_seconds > 0.0 && !pending.empty()) {
        // Busy fraction of the pool: 1.0 means every worker simulated for
        // the whole sweep; low values mean queue-wait or load imbalance.
        reg->wall_gauge("exec.sweep.utilization", obs::Gauge::Kind::kLast)
            ->set(busy / (sweep_seconds * static_cast<double>(workers)));
      }
    }
  }
  return outcome;
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
