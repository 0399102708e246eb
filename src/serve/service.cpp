#include "serve/service.hpp"

#include <chrono>
#include <numeric>
#include <utility>

#include "exec/store.hpp"
#include "util/assert.hpp"
#include "workloads/registry.hpp"

namespace gearsim::serve {

namespace {

std::string u64(std::uint64_t v) { return std::to_string(v); }

}  // namespace

AdmissionGate::AdmissionGate(Options options) : options_(options) {
  GEARSIM_REQUIRE(options_.admit > 0, "admission capacity must be positive");
}

bool AdmissionGate::acquire(std::size_t n) {
  std::unique_lock<std::mutex> lock(mutex_);
  // Oversized batches can never fit; rejecting them outright keeps the
  // wait below free of a waiter that starves forever.
  if (n > options_.admit) {
    ++stats_.rejected;
    return false;
  }
  if (in_flight_ + n <= options_.admit && waiting_ == 0) {
    in_flight_ += n;
    ++stats_.admitted;
    return true;
  }
  if (waiting_ + n > options_.queue) {
    ++stats_.rejected;
    return false;
  }
  waiting_ += n;
  cv_.wait(lock, [&] { return in_flight_ + n <= options_.admit; });
  waiting_ -= n;
  in_flight_ += n;
  ++stats_.admitted;
  ++stats_.queued;
  return true;
}

void AdmissionGate::release(std::size_t n) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    in_flight_ -= n;
  }
  cv_.notify_all();
}

AdmissionGate::Stats AdmissionGate::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

Service::Service(ServiceOptions options)
    : options_(std::move(options)),
      cache_(options_.cache),
      gate_(options_.admission),
      metrics_(options_.wall_profile) {
  if (options_.preload) cache_.preload();
}

const exec::SweepRunner& Service::runner_for(const Request& request) {
  // One runner per simulated configuration: the canonical topology spec
  // joins the cluster name in the key ('|' cannot occur in either).
  const std::string key = request.cluster + "|" + request.topology;
  const std::lock_guard<std::mutex> lock(runners_mutex_);
  auto it = runners_.find(key);
  if (it == runners_.end()) {
    exec::SweepOptions sweep;
    sweep.jobs = options_.jobs;
    sweep.cache = &cache_;
    sweep.max_attempts = 1 + std::max(0, options_.retries);
    cluster::ClusterConfig config = cluster::cluster_by_name(request.cluster);
    if (!request.topology.empty()) {
      cluster::install_topology(&config,
                                net::parse_topology(request.topology));
    }
    it = runners_
             .emplace(key, std::make_unique<exec::SweepRunner>(
                               std::move(config), sweep))
             .first;
  }
  return *it->second;
}

std::vector<cluster::RunResult> Service::run_points(
    const Request& request, const std::vector<exec::SweepPoint>& points) {
  const exec::SweepRunner& runner = runner_for(request);
  // Validate the whole list up front: a bad coordinate is the *query's*
  // error and must fail before any claim or admission side effect.
  for (const exec::SweepPoint& p : points) runner.validate_point(p);

  // One key per point, built once: every point of a query shares its
  // workload, so the workload is signed once too.
  const std::size_t n = points.size();
  std::vector<exec::CacheKey> keys;
  keys.reserve(n);
  if (n > 0) {
    const std::string signature = points.front().workload->signature();
    for (const exec::SweepPoint& p : points) {
      GEARSIM_REQUIRE(p.workload == points.front().workload,
                      "one query, one workload");
      keys.push_back(runner.point_key(p, signature));
    }
  }

  std::vector<std::optional<cluster::RunResult>> results(n);
  std::vector<std::size_t> pending(n);
  std::iota(pending.begin(), pending.end(), std::size_t{0});

  struct Claim {
    std::size_t index;
    exec::InflightTable::Ticket ticket;
  };

  // Rounds: each pass probes the cache, splits the still-missing points
  // into leaders (this query simulates them) and followers (another
  // in-flight query already is), and re-enters only points whose leader
  // abandoned (e.g. it was rejected at admission).
  while (!pending.empty()) {
    std::vector<Claim> leaders;
    std::vector<Claim> followers;
    for (const std::size_t idx : pending) {
      if (auto hit = cache_.lookup(keys[idx])) {
        results[idx] = std::move(*hit);
        continue;
      }
      exec::InflightTable::Ticket ticket = inflight_.claim(keys[idx].text);
      if (!ticket.leader) {
        followers.push_back(Claim{idx, std::move(ticket)});
        continue;
      }
      // Another query's leader may have inserted and published this key
      // between the probe above and the claim: look again before
      // simulating, or the point would run twice.
      if (auto hit = cache_.lookup(keys[idx])) {
        inflight_.publish(keys[idx].text, ticket, *hit);
        results[idx] = std::move(*hit);
        continue;
      }
      leaders.push_back(Claim{idx, std::move(ticket)});
    }
    pending.clear();

    if (!leaders.empty()) {
      if (!gate_.acquire(leaders.size())) {
        // Settle our claims before rejecting, so followers coalesced on
        // them re-enter their own race instead of blocking forever.
        for (const Claim& c : leaders) {
          inflight_.abandon(keys[c.index].text, c.ticket);
        }
        throw RejectedError(options_.retry_after_ms);
      }
      std::vector<exec::SweepPoint> batch;
      std::vector<exec::CacheKey> batch_keys;
      batch.reserve(leaders.size());
      batch_keys.reserve(leaders.size());
      for (const Claim& c : leaders) {
        batch.push_back(points[c.index]);
        batch_keys.push_back(keys[c.index]);
      }
      simulations_.fetch_add(batch.size(), std::memory_order_relaxed);
      exec::SweepOutcome outcome;
      try {
        outcome = runner.run_misses(batch, batch_keys);
      } catch (...) {
        for (const Claim& c : leaders) {
          inflight_.fail(keys[c.index].text, c.ticket,
                         "simulation batch failed");
        }
        gate_.release(leaders.size());
        throw;
      }
      gate_.release(leaders.size());

      std::string first_error;
      for (std::size_t i = 0; i < leaders.size(); ++i) {
        const Claim& c = leaders[i];
        if (outcome.results[i].has_value()) {
          // The runner already inserted into the cache; publishing wakes
          // the followers with the same bytes a cache hit would serve.
          inflight_.publish(keys[c.index].text, c.ticket,
                            *outcome.results[i]);
          results[c.index] = std::move(outcome.results[i]);
          continue;
        }
        std::string error = "point failed";
        for (const exec::JobFailure& f : outcome.failures) {
          if (f.index == i) {
            error = f.error;
            break;
          }
        }
        inflight_.fail(keys[c.index].text, c.ticket, error);
        if (first_error.empty()) first_error = error;
      }
      if (!first_error.empty()) throw SimulationError(first_error);
    }

    for (const Claim& c : followers) {
      const exec::InflightTable::WaitResult w = inflight_.wait(c.ticket);
      switch (w.outcome) {
        case exec::InflightTable::Outcome::kReady:
          results[c.index] = *w.result;
          break;
        case exec::InflightTable::Outcome::kFailed:
          throw SimulationError(w.error);
        case exec::InflightTable::Outcome::kAbandoned:
          pending.push_back(c.index);
          break;
      }
    }
  }

  std::vector<cluster::RunResult> out;
  out.reserve(n);
  for (std::optional<cluster::RunResult>& r : results) {
    out.push_back(std::move(*r));
  }
  return out;
}

std::string Service::handle_request(const Request& request) {
  if (request.type == "stats") return stats_response();
  if (request.type == "shutdown") {
    shutdown_.store(true, std::memory_order_release);
    return shutdown_response();
  }

  const cluster::ClusterConfig config =
      cluster::cluster_by_name(request.cluster);
  const auto workload = workloads::make_workload(request.workload);

  if (request.type == "run") {
    const std::vector<exec::SweepPoint> points{exec::SweepPoint{
        workload.get(), request.nodes,
        static_cast<std::size_t>(request.gear - 1), request.rep}};
    return run_response(request, run_points(request, points)[0]);
  }

  if (request.type == "sweep") {
    // Same flat gears x reps order as `gearsim sweep`.
    std::vector<exec::SweepPoint> points;
    points.reserve(config.gears.size() *
                   static_cast<std::size_t>(request.repeat));
    for (std::size_t g = 0; g < config.gears.size(); ++g) {
      for (int rep = 0; rep < request.repeat; ++rep) {
        points.push_back(
            exec::SweepPoint{workload.get(), request.nodes, g, rep});
      }
    }
    return sweep_response(request, run_points(request, points));
  }

  GEARSIM_REQUIRE(request.type == "race",
                  "unhandled request type: " + request.type);
  // Phase 1: the static curve (the roster derives from its ladder).
  std::vector<exec::SweepPoint> static_points;
  static_points.reserve(config.gears.size());
  for (std::size_t g = 0; g < config.gears.size(); ++g) {
    static_points.push_back(
        exec::SweepPoint{workload.get(), request.nodes, g, 0});
  }
  std::vector<cluster::RunResult> statics =
      run_points(request, static_points);
  // Phase 2: the adaptive roster — the exact lineup `gearsim policy`
  // races (policy::policy_roster), through the same dedup/admission
  // path, so races coalesce with each other and with sweeps.
  const std::vector<policy::RosterEntry> roster =
      policy::policy_roster(config, statics, policy::PolicyEvaluator::Options{});
  std::vector<exec::SweepPoint> policy_points;
  policy_points.reserve(roster.size());
  for (const policy::RosterEntry& entry : roster) {
    policy_points.push_back(exec::SweepPoint{workload.get(), request.nodes, 0,
                                             0, &entry.factory});
  }
  const std::vector<cluster::RunResult> runs =
      run_points(request, policy_points);
  std::vector<policy::PolicyRun> rows;
  rows.reserve(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    rows.push_back(policy::PolicyRun{roster[i].name,
                                     roster[i].factory.signature(), runs[i]});
  }
  return race_response(
      request, policy::assemble_evaluation(workload->name(), request.nodes,
                                           std::move(statics),
                                           std::move(rows)));
}

std::string Service::handle_line(const std::string& line) {
  const bool timed = metrics_.wall_profiling();
  const std::chrono::steady_clock::time_point start =
      timed ? std::chrono::steady_clock::now()
            : std::chrono::steady_clock::time_point{};
  std::string type = "invalid";
  std::string response;
  try {
    const Request request = parse_request(line);
    type = request.type;
    response = handle_request(request);
  } catch (const RejectedError& e) {
    response = rejected_response(e.retry_after_ms);
  } catch (const std::exception& e) {
    response = error_response(e.what());
  }
  if (timed) {
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    const std::lock_guard<std::mutex> lock(metrics_mutex_);
    metrics_.wall_counter("serve.requests." + type)->add(1);
    metrics_
        .wall_histogram("serve.query.seconds." + type,
                        {0.001, 0.01, 0.1, 1.0, 10.0})
        ->observe(elapsed);
  }
  return response;
}

std::uint64_t Service::simulations() const {
  return simulations_.load(std::memory_order_relaxed);
}

std::string Service::stats_response() {
  const exec::CacheStats cache = cache_.stats();
  const AdmissionGate::Stats gate = gate_.stats();
  const exec::InflightTable::Stats inflight = inflight_.stats();

  std::string out = "{\"cache\":{";
  out += "\"corrupt\":" + u64(cache.corrupt);
  out += ",\"disk_evictions\":" + u64(cache.disk_evictions);
  out += ",\"disk_hits\":" + u64(cache.disk_hits);
  out += ",\"evictions\":" + u64(cache.evictions);
  out += ",\"hits\":" + u64(cache.hits);
  out += ",\"insertions\":" + u64(cache.insertions);
  out += ",\"misses\":" + u64(cache.misses);
  out += ",\"preloaded\":" + u64(cache.preloaded);
  out += ",\"quarantined\":" + u64(cache.quarantined);
  out += ",\"stale_tmp_swept\":" + u64(cache.stale_tmp_swept);
  out += "},\"gate\":{";
  out += "\"admitted\":" + u64(gate.admitted);
  out += ",\"queued\":" + u64(gate.queued);
  out += ",\"rejected\":" + u64(gate.rejected);
  out += "},\"inflight\":{";
  out += "\"abandoned\":" + u64(inflight.abandoned);
  out += ",\"coalesced\":" + u64(inflight.coalesced);
  out += ",\"failed\":" + u64(inflight.failed);
  out += ",\"leaders\":" + u64(inflight.leaders);
  out += ",\"open\":" + u64(inflight_.open());
  out += ",\"published\":" + u64(inflight.published);
  out += "},\"metrics\":";
  {
    const std::lock_guard<std::mutex> lock(metrics_mutex_);
    out += metrics_.snapshot().to_json(obs::Domain::kWall);
  }
  out += ",\"service\":{";
  out += "\"simulations\":" + u64(simulations());
  out += "},\"shards\":[";
  if (!options_.cache.disk_dir.empty()) {
    const exec::StoreStats stats = exec::store_stats(options_.cache.disk_dir);
    bool first = true;
    for (const exec::ShardStats& shard : stats.shards) {
      if (!first) out += ',';
      first = false;
      out += "{\"bytes\":" + u64(shard.bytes);
      out += ",\"entries\":" + u64(shard.entries);
      out += ",\"evictions\":" + u64(shard.evictions);
      out += ",\"name\":" + json::jstr(shard.name);
      out += ",\"quarantined\":" + u64(shard.quarantined) + "}";
    }
  }
  out += "],\"status\":\"ok\",\"type\":\"stats\"}";
  return out;
}

}  // namespace gearsim::serve
