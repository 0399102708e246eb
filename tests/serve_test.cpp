// Tests for the what-if query service (src/serve/): wire protocol
// round-trips, in-flight dedup, bounded admission, the sharded disk
// store with per-shard budgets and preload, and the Service itself —
// whose responses must be byte-identical to a cold SweepRunner whether
// they came from a simulation, the hot LRU, the disk store, a coalesced
// neighbor, or a quarantine recovery.
//
// The Soak* tests are the exactly-once gate: N concurrent clients
// hammering one key set — with store writes torn mid-run by failpoints —
// must cost exactly one simulation per unique point and read identical
// bytes, and a cold restart over the damaged store must quarantine and
// recompute exactly the torn entries.  The Daemon* tests cover the
// AF_UNIX transport end to end.  See docs/SERVICE.md.
#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cluster/config.hpp"
#include "exec/inflight.hpp"
#include "exec/result_cache.hpp"
#include "exec/result_io.hpp"
#include "exec/store.hpp"
#include "exec/sweep_runner.hpp"
#include "policy/evaluator.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "util/assert.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"
#include "workloads/registry.hpp"

namespace gearsim::serve {
namespace {

using util::FailpointSpec;
using util::ScopedFailpoint;

/// A scratch directory removed on destruction, for disk-store tests.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& tag)
      : path(std::filesystem::temp_directory_path() /
             ("gearsim_serve_test_" + tag)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

/// The test query: Jacobi is in the workload registry and simulates in
/// milliseconds, so dedup/soak tests stay cheap.
Request jacobi_sweep() {
  Request q;
  q.type = "sweep";
  q.workload = "Jacobi";
  q.nodes = 2;
  return q;
}

/// What a cold, cacheless `gearsim sweep` computes for `q` — the bytes
/// every served answer is diffed against.
std::vector<cluster::RunResult> cold_sweep(const Request& q) {
  const cluster::ClusterConfig config = cluster::athlon_cluster();
  const auto workload = workloads::make_workload(q.workload);
  const exec::SweepRunner runner(config, exec::SweepOptions{});
  std::vector<exec::SweepPoint> points;
  for (std::size_t g = 0; g < config.gears.size(); ++g) {
    for (int rep = 0; rep < q.repeat; ++rep) {
      points.push_back(exec::SweepPoint{workload.get(), q.nodes, g, rep});
    }
  }
  return runner.run(points);
}

ServiceOptions memory_only_options() {
  ServiceOptions options;
  options.jobs = 2;
  return options;
}

// ---- protocol ---------------------------------------------------------------

TEST(ServeProtocolTest, RequestRoundTripsThroughItsCanonicalLine) {
  Request q;
  q.type = "run";
  q.cluster = "sun";
  q.workload = "LU";
  q.nodes = 8;
  q.gear = 3;
  q.rep = 2;
  q.repeat = 5;
  const std::string line = render_request(q);
  const Request back = parse_request(line);
  EXPECT_EQ(render_request(back), line);
  EXPECT_EQ(back.cluster, "sun");
  EXPECT_EQ(back.gear, 3);
}

TEST(ServeProtocolTest, MissingFieldsTakeCliDefaults) {
  const Request q = parse_request("{\"type\":\"sweep\"}");
  EXPECT_EQ(q.cluster, "athlon");
  EXPECT_EQ(q.workload, "CG");
  EXPECT_EQ(q.nodes, 4);
  EXPECT_EQ(q.repeat, 1);
}

TEST(ServeProtocolTest, RejectsMalformedRequests) {
  EXPECT_THROW((void)parse_request("not json"), ContractError);
  EXPECT_THROW((void)parse_request("[1,2]"), ContractError);
  EXPECT_THROW((void)parse_request("{\"type\":\"dance\"}"), ContractError);
  EXPECT_THROW((void)parse_request("{\"type\":\"run\",\"nodes\":0}"),
               ContractError);
  EXPECT_THROW((void)parse_request("{\"type\":\"run\",\"gear\":0}"),
               ContractError);
}

TEST(ServeProtocolTest, ResultsSurviveTheResponseRoundTrip) {
  const Request q = jacobi_sweep();
  const std::vector<cluster::RunResult> results = cold_sweep(q);
  const std::string response = sweep_response(q, results);
  const std::vector<cluster::RunResult> back =
      results_from_response(json::parse(response));
  ASSERT_EQ(back.size(), results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    // to_json is the bit-identity fingerprint used by the cache tests.
    EXPECT_EQ(exec::to_json(back[i]), exec::to_json(results[i]));
  }
}

TEST(ServeProtocolTest, BackpressureAndErrorResponsesAreStructured) {
  const json::Value rejected = json::parse(rejected_response(250));
  EXPECT_EQ(json::field(rejected.as_object(), "status").as_string(),
            "rejected");
  EXPECT_EQ(json::field(rejected.as_object(), "retry_after_ms").as_int(), 250);
  const json::Value error = json::parse(error_response("boom \"quoted\""));
  EXPECT_EQ(json::field(error.as_object(), "status").as_string(), "error");
  EXPECT_EQ(json::field(error.as_object(), "error").as_string(),
            "boom \"quoted\"");
}

// ---- in-flight dedup --------------------------------------------------------

TEST(InflightTableTest, FollowersReceiveTheLeadersResult) {
  const Request q = jacobi_sweep();
  const cluster::RunResult result = cold_sweep(q)[0];
  exec::InflightTable table;
  const auto leader = table.claim("k");
  ASSERT_TRUE(leader.leader);
  const auto follower = table.claim("k");
  EXPECT_FALSE(follower.leader);
  EXPECT_EQ(table.open(), 1u);

  table.publish("k", leader, result);
  const exec::InflightTable::WaitResult w = table.wait(follower);
  ASSERT_EQ(w.outcome, exec::InflightTable::Outcome::kReady);
  EXPECT_EQ(exec::to_json(*w.result), exec::to_json(result));
  EXPECT_EQ(table.open(), 0u);

  const exec::InflightTable::Stats s = table.stats();
  EXPECT_EQ(s.leaders, 1u);
  EXPECT_EQ(s.coalesced, 1u);
  EXPECT_EQ(s.published, 1u);
}

TEST(InflightTableTest, FailurePropagatesAndTheKeyReopens) {
  exec::InflightTable table;
  const auto leader = table.claim("k");
  const auto follower = table.claim("k");
  table.fail("k", leader, "engine exploded");
  const exec::InflightTable::WaitResult w = table.wait(follower);
  ASSERT_EQ(w.outcome, exec::InflightTable::Outcome::kFailed);
  EXPECT_EQ(w.error, "engine exploded");
  // A failed round is closed, not poisoned: the next claim leads anew.
  EXPECT_TRUE(table.claim("k").leader);
}

TEST(InflightTableTest, AbandonSendsFollowersBackToTheRace) {
  exec::InflightTable table;
  const auto leader = table.claim("k");
  const auto follower = table.claim("k");
  table.abandon("k", leader);
  EXPECT_EQ(table.wait(follower).outcome,
            exec::InflightTable::Outcome::kAbandoned);
  EXPECT_TRUE(table.claim("k").leader);
  EXPECT_EQ(table.stats().abandoned, 1u);
}

// ---- admission --------------------------------------------------------------

TEST(AdmissionGateTest, OversizedBatchesRejectImmediately) {
  AdmissionGate gate({/*admit=*/4, /*queue=*/16});
  EXPECT_FALSE(gate.acquire(5));
  EXPECT_EQ(gate.stats().rejected, 1u);
  EXPECT_TRUE(gate.acquire(4));
}

TEST(AdmissionGateTest, QueueOverflowRejectsDeterministically) {
  AdmissionGate gate({/*admit=*/2, /*queue=*/1});
  ASSERT_TRUE(gate.acquire(2));
  // A 2-unit batch cannot queue behind a 1-slot queue: this is the
  // deterministic reject path, no timing involved.
  EXPECT_FALSE(gate.acquire(2));
  const AdmissionGate::Stats s = gate.stats();
  EXPECT_EQ(s.admitted, 1u);
  EXPECT_EQ(s.rejected, 1u);
  gate.release(2);
  EXPECT_TRUE(gate.acquire(2));
}

TEST(AdmissionGateTest, QueuedAcquirersWakeOnRelease) {
  AdmissionGate gate({/*admit=*/1, /*queue=*/4});
  ASSERT_TRUE(gate.acquire(1));
  bool acquired = false;
  std::thread waiter([&] { acquired = gate.acquire(1); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.release(1);
  waiter.join();
  EXPECT_TRUE(acquired);
  const AdmissionGate::Stats s = gate.stats();
  EXPECT_EQ(s.admitted, 2u);
  EXPECT_EQ(s.queued, 1u);
  EXPECT_EQ(s.rejected, 0u);
}

// ---- sharded disk store -----------------------------------------------------

/// Cache keys of the Jacobi sweep's points, for direct-store tests.
std::vector<exec::CacheKey> jacobi_keys() {
  const cluster::ClusterConfig config = cluster::athlon_cluster();
  const auto workload = workloads::make_workload("Jacobi");
  const exec::SweepRunner runner(config, exec::SweepOptions{});
  std::vector<exec::CacheKey> keys;
  for (std::size_t g = 0; g < config.gears.size(); ++g) {
    keys.push_back(
        runner.point_key(exec::SweepPoint{workload.get(), 2, g, 0}));
  }
  return keys;
}

TEST(ShardedStoreTest, EntriesLandUnderTheirHashPrefix) {
  const TempDir dir("layout");
  exec::ResultCache::Options options;
  options.disk_dir = dir.path.string();
  options.shard_digits = 2;
  exec::ResultCache cache(options);
  const std::vector<exec::CacheKey> keys = jacobi_keys();
  const std::vector<cluster::RunResult> results = cold_sweep(jacobi_sweep());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    cache.insert(keys[i], results[i]);
  }
  for (const exec::CacheKey& k : keys) {
    const std::string hex = k.hex();
    EXPECT_TRUE(std::filesystem::exists(dir.path / hex.substr(0, 2) /
                                        (hex + ".json")))
        << hex;
  }
  // store_stats sees the same layout the cache wrote.
  const exec::StoreStats stats = exec::store_stats(dir.path.string());
  EXPECT_EQ(stats.total_entries(), keys.size());
  EXPECT_GT(stats.total_bytes(), 0u);
  EXPECT_EQ(stats.total_quarantined(), 0u);
}

TEST(ShardedStoreTest, BudgetEvictsLeastRecentlyTouchedAndKeepsALedger) {
  const TempDir dir("budget");
  exec::ResultCache::Options options;
  options.disk_dir = dir.path.string();
  options.shard_entry_budget = 2;  // shard_digits 0: the root is one shard.
  const std::vector<exec::CacheKey> keys = jacobi_keys();
  const std::vector<cluster::RunResult> results = cold_sweep(jacobi_sweep());
  {
    exec::ResultCache cache(options);
    for (std::size_t i = 0; i < 4; ++i) cache.insert(keys[i], results[i]);
    EXPECT_EQ(cache.stats().disk_evictions, 2u);
  }
  std::size_t on_disk = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir.path)) {
    if (e.path().extension() == ".json") ++on_disk;
  }
  EXPECT_EQ(on_disk, 2u);
  // The lifetime total survives in the .evicted ledger and shows up in
  // store_stats / `gearsim cache stats`.
  EXPECT_EQ(exec::store_stats(dir.path.string()).total_evictions(), 2u);

  // A fresh cache seeds its budget state from the scan: two more inserts
  // evict two more, continuing the ledger rather than resetting it.
  exec::ResultCache again(options);
  again.insert(keys[4], results[4]);
  again.insert(keys[5], results[5]);
  EXPECT_EQ(exec::store_stats(dir.path.string()).total_evictions(), 4u);
}

TEST(ShardedStoreTest, PreloadWarmStartsTheMemoryTier) {
  const TempDir dir("preload");
  exec::ResultCache::Options options;
  options.disk_dir = dir.path.string();
  options.shard_digits = 1;
  const std::vector<exec::CacheKey> keys = jacobi_keys();
  const std::vector<cluster::RunResult> results = cold_sweep(jacobi_sweep());
  {
    exec::ResultCache writer(options);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      writer.insert(keys[i], results[i]);
    }
  }
  exec::ResultCache warm(options);
  EXPECT_EQ(warm.preload(), keys.size());
  EXPECT_EQ(warm.stats().preloaded, keys.size());
  // Every lookup is now a *memory* hit: preload already paid the disk.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto hit = warm.lookup(keys[i]);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(exec::to_json(*hit), exec::to_json(results[i]));
  }
  EXPECT_EQ(warm.stats().hits, keys.size());
  EXPECT_EQ(warm.stats().disk_hits, 0u);
}

// ---- the service ------------------------------------------------------------

TEST(ServiceTest, SweepResponseIsByteIdenticalToAColdRunner) {
  Service service(memory_only_options());
  const Request q = jacobi_sweep();
  const std::string expected = sweep_response(q, cold_sweep(q));
  EXPECT_EQ(service.handle_line(render_request(q)), expected);
  EXPECT_EQ(service.simulations(), 6u);

  // Second ask: pure cache hits, same bytes, no new simulations.
  EXPECT_EQ(service.handle_line(render_request(q)), expected);
  EXPECT_EQ(service.simulations(), 6u);
}

TEST(ServiceTest, RunQueryServesOnePoint) {
  Service service(memory_only_options());
  Request q = jacobi_sweep();
  q.type = "run";
  q.gear = 3;
  const std::string expected =
      run_response(q, cold_sweep(jacobi_sweep())[2]);  // gear 3 = index 2.
  EXPECT_EQ(service.handle_line(render_request(q)), expected);
  EXPECT_EQ(service.simulations(), 1u);
}

TEST(ServiceTest, RaceMatchesTheLocalPolicyEvaluator) {
  Service service(memory_only_options());
  Request q = jacobi_sweep();
  q.type = "race";
  const policy::PolicyEvaluator evaluator(
      cluster::athlon_cluster(), policy::PolicyEvaluator::Options{});
  const policy::Evaluation local =
      evaluator.evaluate(*workloads::make_workload("Jacobi"), q.nodes);
  const std::string response = service.handle_line(render_request(q));
  EXPECT_EQ(response, race_response(q, local));
  // And the client-side reassembly reproduces the evaluation record.
  const policy::Evaluation back =
      evaluation_from_response(json::parse(response));
  ASSERT_EQ(back.policies.size(), local.policies.size());
  for (std::size_t i = 0; i < local.policies.size(); ++i) {
    EXPECT_EQ(back.policies[i].name, local.policies[i].name);
    EXPECT_EQ(back.policies[i].energy_delta, local.policies[i].energy_delta);
    EXPECT_EQ(back.policies[i].on_frontier, local.policies[i].on_frontier);
  }
}

TEST(ServiceTest, FailuresBecomeErrorResponses) {
  Service service(memory_only_options());
  const auto status_of = [&](const std::string& line) {
    return json::field(json::parse(service.handle_line(line)).as_object(),
                       "status")
        .as_string();
  };
  EXPECT_EQ(status_of("{\"type\":\"run\",\"workload\":\"NOPE\"}"), "error");
  EXPECT_EQ(status_of("{\"type\":\"run\",\"gear\":99}"), "error");
  EXPECT_EQ(status_of("garbage"), "error");
  // A bad query leaves no open in-flight rounds behind.
  EXPECT_EQ(service.inflight_stats().leaders, 0u);
}

TEST(ServiceTest, StatsQueryExposesEveryCounterGroup) {
  ServiceOptions options = memory_only_options();
  options.wall_profile = true;
  Service service(options);
  (void)service.handle_line(render_request(jacobi_sweep()));
  const json::Value stats =
      json::parse(service.handle_line("{\"type\":\"stats\"}"));
  const json::Object& obj = stats.as_object();
  EXPECT_EQ(json::field(obj, "type").as_string(), "stats");
  const json::Object& cache = json::field(obj, "cache").as_object();
  EXPECT_EQ(json::field(cache, "insertions").as_u64(), 6u);
  const json::Object& svc = json::field(obj, "service").as_object();
  EXPECT_EQ(json::field(svc, "simulations").as_u64(), 6u);
  EXPECT_TRUE(json::field(obj, "gate").is_object());
  EXPECT_TRUE(json::field(obj, "inflight").is_object());
  EXPECT_TRUE(json::field(obj, "shards").is_array());
  // --wall-profile: the sweep left a latency histogram + counter behind.
  const json::Object& metrics = json::field(obj, "metrics").as_object();
  EXPECT_TRUE(json::find(metrics, "serve.requests.sweep") != nullptr);
}

TEST(ServiceTest, ShutdownRequestFlipsTheFlag) {
  Service service(memory_only_options());
  EXPECT_FALSE(service.shutdown_requested());
  EXPECT_EQ(service.handle_line("{\"type\":\"shutdown\"}"),
            shutdown_response());
  EXPECT_TRUE(service.shutdown_requested());
}

TEST(ServiceTest, AdmissionRejectCarriesTheConfiguredRetryHint) {
  ServiceOptions options = memory_only_options();
  options.admission.admit = 1;
  options.admission.queue = 0;
  options.retry_after_ms = 77;
  Service service(std::move(options));

  // Stretch the first query's simulation so the second one arrives while
  // the gate is full (job.slow sleeps `arg` ms inside the supervisor).
  FailpointSpec slow;
  slow.arg = 600;
  const ScopedFailpoint fp("exec.supervisor.job.slow", slow);
  Request first = jacobi_sweep();
  first.type = "run";
  std::string first_response;
  std::thread holder([&] {
    first_response = service.handle_line(render_request(first));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  Request second = first;
  second.gear = 2;  // Different key: a real admission attempt, not dedup.
  EXPECT_EQ(service.handle_line(render_request(second)),
            rejected_response(77));
  holder.join();
  EXPECT_EQ(json::field(json::parse(first_response).as_object(), "status")
                .as_string(),
            "ok");
  EXPECT_EQ(service.admission_stats().rejected, 1u);
  // The rejected query settled its claim; nothing is left in flight.
  const std::string retry = service.handle_line(render_request(second));
  EXPECT_EQ(json::field(json::parse(retry).as_object(), "status").as_string(),
            "ok");
}

TEST(ServiceTest, ConcurrentIdenticalQueriesCoalesceOntoOneLeader) {
  Service service(memory_only_options());
  // Slow every point down so the followers provably arrive while the
  // leader is still simulating.
  FailpointSpec slow;
  slow.arg = 150;
  const ScopedFailpoint fp("exec.supervisor.job.slow", slow);
  const std::string line = render_request(jacobi_sweep());
  std::vector<std::string> responses(4);
  std::vector<std::thread> threads;
  threads.reserve(responses.size());
  for (std::size_t t = 0; t < responses.size(); ++t) {
    threads.emplace_back(
        [&, t] {
          if (t > 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(60));
          }
          responses[t] = service.handle_line(line);
        });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& r : responses) EXPECT_EQ(r, responses[0]);
  EXPECT_EQ(service.simulations(), 6u);
  EXPECT_GT(service.inflight_stats().coalesced, 0u);
}

TEST(ServiceTest, StaggeredIdenticalQueriesSimulateEachPointOnce) {
  // Identical sweeps arriving a little apart: some probe the cache just
  // before another query's leader inserts and publishes, then claim just
  // after, and must find the result on the leader's re-probe instead of
  // simulating it again.  Fresh services, so every round starts cold.
  const Request q = jacobi_sweep();
  const std::string line = render_request(q);
  const std::string expected = sweep_response(q, cold_sweep(q));
  std::mt19937 rng(2005);
  std::uniform_int_distribution<int> offset_us(0, 3000);
  for (int round = 0; round < 12; ++round) {
    Service service(memory_only_options());
    std::vector<int> offsets(8);
    for (int& o : offsets) o = offset_us(rng);
    std::vector<std::string> responses(offsets.size());
    std::vector<std::thread> threads;
    threads.reserve(offsets.size());
    for (std::size_t t = 0; t < offsets.size(); ++t) {
      threads.emplace_back([&, t] {
        std::this_thread::sleep_for(std::chrono::microseconds(offsets[t]));
        responses[t] = service.handle_line(line);
      });
    }
    for (std::thread& t : threads) t.join();
    for (const std::string& r : responses) EXPECT_EQ(r, expected);
    EXPECT_EQ(service.simulations(), 6u) << "round " << round;
  }
}

// ---- hot / cold / quarantine byte identity ----------------------------------

TEST(ServiceTest, DiskRestartsAndQuarantineRecoveryServeTheSameBytes) {
  const TempDir dir("identity");
  const Request q = jacobi_sweep();
  const std::string line = render_request(q);
  const std::string expected = sweep_response(q, cold_sweep(q));

  ServiceOptions options = memory_only_options();
  options.cache.disk_dir = dir.path.string();
  options.cache.shard_digits = 2;
  {
    // Cold daemon: six simulations, canonical bytes.
    Service cold(options);
    EXPECT_EQ(cold.handle_line(line), expected);
    EXPECT_EQ(cold.simulations(), 6u);
  }
  {
    // Warm restart with preload: zero simulations, identical bytes from
    // the memory tier.
    ServiceOptions warm_options = options;
    warm_options.preload = true;
    Service warm(warm_options);
    EXPECT_EQ(warm.cache().stats().preloaded, 6u);
    EXPECT_EQ(warm.handle_line(line), expected);
    EXPECT_EQ(warm.simulations(), 0u);
    EXPECT_EQ(warm.cache().stats().hits, 6u);
  }
  // Tear one stored entry, then restart cold: the damaged point is
  // quarantined and recomputed, the other five come from disk, and the
  // response is still the same bytes.
  std::filesystem::path victim;
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(dir.path)) {
    if (e.path().extension() == ".json") {
      victim = e.path();
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  std::filesystem::resize_file(victim, 25);
  {
    Service repaired(options);
    EXPECT_EQ(repaired.handle_line(line), expected);
    EXPECT_EQ(repaired.simulations(), 1u);
    EXPECT_EQ(repaired.cache().stats().quarantined, 1u);
    EXPECT_EQ(repaired.cache().stats().disk_hits, 5u);
  }
}

TEST(ServeSoakTest, TornStoreWritesNeverLeakIntoResponses) {
  const TempDir dir("soak");
  const Request q = jacobi_sweep();
  const std::string line = render_request(q);
  const std::string expected = sweep_response(q, cold_sweep(q));

  ServiceOptions options = memory_only_options();
  options.cache.disk_dir = dir.path.string();
  options.cache.shard_digits = 1;
  std::uint64_t torn = 0;
  {
    Service service(options);
    // Tear two of the six store writes mid-soak (visits 2 and 5 of the
    // write-truncate failpoint, keeping 30 bytes).  Responses come from
    // the results in hand, so the damage must be invisible until a cold
    // restart reads the store.
    FailpointSpec spec;
    spec.skip = 1;
    spec.every = 3;
    spec.times = 2;
    spec.arg = 30;
    const ScopedFailpoint fp("exec.store.write.truncate", spec);

    std::vector<std::string> responses(8);
    std::vector<std::thread> clients;
    clients.reserve(responses.size());
    for (std::size_t t = 0; t < responses.size(); ++t) {
      clients.emplace_back(
          [&, t] { responses[t] = service.handle_line(line); });
    }
    for (std::thread& t : clients) t.join();
    for (const std::string& r : responses) EXPECT_EQ(r, expected);
    // The exactly-once invariant: 8 concurrent clients, 6 unique points,
    // 6 simulations — dedup and the cache absorbed the other 42.
    EXPECT_EQ(service.simulations(), 6u);
    torn = exec::verify_store(dir.path.string()).corrupt.size();
    EXPECT_EQ(torn, 2u);
  }
  // Cold restart over the damaged store: exactly the torn entries are
  // quarantined and recomputed; the bytes served never change.
  Service repaired(options);
  EXPECT_EQ(repaired.handle_line(line), expected);
  EXPECT_EQ(repaired.simulations(), torn);
}

// ---- daemon end to end ------------------------------------------------------

#if defined(__unix__) || defined(__APPLE__)

TEST(DaemonTest, ServesClientsOverAUnixSocketUntilShutdown) {
  const TempDir dir("daemon");
  const std::string socket = (dir.path / "s.sock").string();
  Service service(memory_only_options());
  Daemon daemon(service, {socket});
  daemon.start();
  EXPECT_TRUE(daemon.running());

  const Client client(socket);
  const Request q = jacobi_sweep();
  const std::string expected = sweep_response(q, cold_sweep(q));
  EXPECT_EQ(client.request(render_request(q)), expected);

  // Concurrent clients through the socket: same bytes, one simulation
  // per unique point (they all hit the cache or coalesce).
  std::vector<std::string> responses(6);
  std::vector<std::thread> clients;
  clients.reserve(responses.size());
  for (std::size_t t = 0; t < responses.size(); ++t) {
    clients.emplace_back([&, t] {
      responses[t] = Client(socket).request(render_request(q));
    });
  }
  for (std::thread& t : clients) t.join();
  for (const std::string& r : responses) EXPECT_EQ(r, expected);
  EXPECT_EQ(service.simulations(), 6u);

  EXPECT_EQ(client.request("{\"type\":\"shutdown\"}"), shutdown_response());
  daemon.wait();
  daemon.stop();
  EXPECT_FALSE(daemon.running());
  EXPECT_FALSE(std::filesystem::exists(socket));
  EXPECT_THROW((void)client.request("{\"type\":\"stats\"}"), ContractError);
}

TEST(DaemonTest, OneConnectionCanCarryManyRequests) {
  // The Client reconnects per request; the daemon itself must also
  // handle several lines on one connection (scripted clients do this).
  const TempDir dir("daemonmulti");
  const std::string socket = (dir.path / "s.sock").string();
  Service service(memory_only_options());
  Daemon daemon(service, {socket});
  daemon.start();
  const Client client(socket);
  EXPECT_EQ(json::field(
                json::parse(client.request("{\"type\":\"stats\"}")).as_object(),
                "type")
                .as_string(),
            "stats");
  EXPECT_EQ(json::field(
                json::parse(client.request("{\"type\":\"stats\"}")).as_object(),
                "type")
                .as_string(),
            "stats");
  daemon.request_stop();
  daemon.stop();
}

/// Connect to `socket`, write `payload` (half-closing the write side when
/// `close_write`), and collect response lines until EOF.
std::vector<std::string> raw_exchange(const std::string& socket,
                                      const std::string& payload,
                                      bool close_write) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket.c_str(), socket.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  // A daemon that never answers fails the test instead of hanging it.
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  std::size_t sent = 0;
  while (sent < payload.size()) {
    const ssize_t n =
        ::send(fd, payload.data() + sent, payload.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;  // The daemon may close early on an over-long line.
    sent += static_cast<std::size_t>(n);
  }
  if (close_write) ::shutdown(fd, SHUT_WR);
  std::string received;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n <= 0) break;
    received.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  std::vector<std::string> lines;
  std::size_t begin = 0;
  for (std::size_t nl; (nl = received.find('\n', begin)) != std::string::npos;
       begin = nl + 1) {
    lines.push_back(received.substr(begin, nl - begin));
  }
  return lines;
}

TEST(DaemonTest, PipelinedLinesOnOneConnectionEachGetAnAnswer) {
  // Several requests in one write: the buffered reader must keep the
  // bytes past each newline for the next request on the connection, and
  // answer an unterminated final line at EOF.
  const TempDir dir("daemonpipe");
  const std::string socket = (dir.path / "s.sock").string();
  Service service(memory_only_options());
  Daemon daemon(service, {socket});
  daemon.start();
  const std::vector<std::string> lines = raw_exchange(
      socket,
      "{\"type\":\"stats\"}\n{\"type\":\"bogus\"}\n{\"type\":\"stats\"}",
      true);
  ASSERT_EQ(lines.size(), 3u);
  const auto status = [](const std::string& line) {
    return json::field(json::parse(line).as_object(), "status").as_string();
  };
  EXPECT_EQ(status(lines[0]), "ok");
  EXPECT_EQ(status(lines[1]), "error");
  EXPECT_EQ(status(lines[2]), "ok");
  daemon.request_stop();
  daemon.stop();
}

TEST(DaemonTest, OverLongRequestLineGetsAnErrorAndTheDaemonKeepsServing) {
  const TempDir dir("daemonlong");
  const std::string socket = (dir.path / "s.sock").string();
  Service service(memory_only_options());
  Daemon daemon(service, {socket});
  daemon.start();
  // 2 MiB without a newline: past the 1 MiB line cap.
  const std::vector<std::string> lines =
      raw_exchange(socket, std::string(std::size_t{2} << 20, 'x'), false);
  ASSERT_EQ(lines.size(), 1u);
  const json::Object response = json::parse(lines[0]).as_object();
  EXPECT_EQ(json::field(response, "status").as_string(), "error");
  EXPECT_NE(json::field(response, "error").as_string().find("longer than"),
            std::string::npos);
  const Client client(socket);
  EXPECT_EQ(json::field(
                json::parse(client.request("{\"type\":\"stats\"}")).as_object(),
                "status")
                .as_string(),
            "ok");
  daemon.request_stop();
  daemon.stop();
}

TEST(DaemonTest, StopReturnsWhileAClientHoldsAnIdleConnection) {
  const TempDir dir("daemonidle");
  const std::string socket = (dir.path / "s.sock").string();
  Service service(memory_only_options());
  Daemon daemon(service, {socket});
  daemon.start();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket.c_str(), socket.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  // A daemon that never lets go fails the test instead of hanging it:
  // the idle client gives up after 10 s and closes.
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  // One answered request proves the connection thread is live; then the
  // client sends nothing more.
  const std::string request = "{\"type\":\"stats\"}\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  char c = 0;
  while (::read(fd, &c, 1) == 1 && c != '\n') {
  }
  ASSERT_EQ(c, '\n');
  ssize_t idle_read = 1;
  std::thread idle([fd, &idle_read] {
    char byte = 0;
    idle_read = ::read(fd, &byte, 1);
    ::close(fd);
  });

  EXPECT_EQ(Client(socket).request("{\"type\":\"shutdown\"}"),
            shutdown_response());
  daemon.wait();
  const auto start = std::chrono::steady_clock::now();
  daemon.stop();
  const double stop_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  idle.join();
  EXPECT_LT(stop_s, 5.0);
  EXPECT_EQ(idle_read, 0) << "the idle client should read EOF";
  EXPECT_FALSE(daemon.running());
}

TEST(DaemonTest, StopLetsARequestInFlightFinish) {
  const TempDir dir("daemoninflight");
  const std::string socket = (dir.path / "s.sock").string();
  Service service(memory_only_options());
  Daemon daemon(service, {socket});
  daemon.start();
  // Stretch the request's one simulation (job.slow sleeps `arg` ms inside
  // the supervisor) so it is still being answered when another client
  // asks for shutdown and stop() runs.
  FailpointSpec slow;
  slow.arg = 800;
  const ScopedFailpoint fp("exec.supervisor.job.slow", slow);
  Request q = jacobi_sweep();
  q.type = "run";
  std::vector<std::string> lines;
  std::thread client(
      [&] { lines = raw_exchange(socket, render_request(q) + "\n", false); });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  EXPECT_EQ(Client(socket).request("{\"type\":\"shutdown\"}"),
            shutdown_response());
  daemon.wait();
  daemon.stop();
  client.join();
  // The answer arrived, then EOF; the daemon (this process) survived the
  // write that followed the shutdown.
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(json::field(json::parse(lines[0]).as_object(), "status")
                .as_string(),
            "ok");
  EXPECT_FALSE(daemon.running());
  EXPECT_FALSE(std::filesystem::exists(socket));
}

/// One field of /proc/self/status (0 when absent or unreadable).
long proc_status_field(const std::string& name) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + ":", 0) == 0) {
      return std::stol(line.substr(name.size() + 1));
    }
  }
  return 0;
}

/// Mappings in this process: every unjoined thread keeps its stack mapped.
std::size_t mapping_count() {
  std::ifstream in("/proc/self/maps");
  std::size_t n = 0;
  for (std::string line; std::getline(in, line);) ++n;
  return n;
}

/// Open `n` connections to `socket` at once and answer a stats request on
/// each before closing any, so the daemon runs `n` connection threads side
/// by side.
void hold_concurrent_connections(const std::string& socket, int n) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket.c_str(), socket.size() + 1);
  const timeval timeout{10, 0};
  const std::string request = "{\"type\":\"stats\"}\n";
  std::vector<int> fds;
  for (int i = 0; i < n; ++i) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    fds.push_back(fd);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(request.size()));
  }
  for (const int fd : fds) {
    char c = 0;
    while (::read(fd, &c, 1) == 1 && c != '\n') {
    }
    EXPECT_EQ(c, '\n');
  }
  for (const int fd : fds) ::close(fd);
}

TEST(DaemonTest, FinishedConnectionThreadsAreReaped) {
  const TempDir dir("daemonreap");
  const std::string socket = (dir.path / "s.sock").string();
  Service service(memory_only_options());
  Daemon daemon(service, {socket});
  daemon.start();
  const Client client(socket);
  // Warm up first.  The C library keeps two bounded caches that map
  // memory per thread and outlive it: malloc arenas (one per thread that
  // ran beside others, up to 8 per core) and the stacks of joined threads
  // (up to 40 MiB).  A loaded machine lets answered connection threads
  // linger, so the burst below would grow both and read as a leak.
  hold_concurrent_connections(socket, 64);
  for (int i = 0; i < 64; ++i) (void)client.request("{\"type\":\"stats\"}");
  const long threads_before = proc_status_field("Threads");
  const std::size_t maps_before = mapping_count();
  for (int i = 0; i < 500; ++i) (void)client.request("{\"type\":\"stats\"}");
  EXPECT_GT(threads_before, 0);
  // A connection thread that has answered may not have exited yet, so
  // poll until both counts settle, for at most a few seconds.  Unjoined
  // threads would leave 500 stacks (1000 mappings) behind for good.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  long threads = proc_status_field("Threads");
  std::size_t maps = mapping_count();
  while ((threads > threads_before + 2 || maps > maps_before + 16) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    threads = proc_status_field("Threads");
    maps = mapping_count();
  }
  EXPECT_LE(threads, threads_before + 2)
      << "threads " << threads_before << " -> " << threads << ", mappings "
      << maps_before << " -> " << maps;
  EXPECT_LE(maps, maps_before + 16)
      << "threads " << threads_before << " -> " << threads << ", mappings "
      << maps_before << " -> " << maps;
  daemon.request_stop();
  daemon.stop();
}

#endif  // __unix__ || __APPLE__

}  // namespace
}  // namespace gearsim::serve
