// Tests for the parallel sweep executor: cache keys, the JSON result
// codec, the two-tier ResultCache (including store-v3 crash consistency:
// torn writes, bit flips, legacy entries, stale temp files, quarantine),
// the sweep fan-out and its GEARSIM_SWEEP_JOBS parse, and the
// determinism contract — SweepRunner output is bit-identical (per
// to_json, which covers every RunResult field) across job counts and
// cold/warm caches.
#include <gtest/gtest.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/dvfs.hpp"
#include "cluster/experiment.hpp"
#include "exec/cache_key.hpp"
#include "exec/result_cache.hpp"
#include "exec/result_io.hpp"
#include "exec/store.hpp"
#include "exec/sweep_runner.hpp"
#include "faults/fault_plan.hpp"
#include "net/topology.hpp"
#include "policy/evaluator.hpp"
#include "util/failpoint.hpp"
#include "workloads/jacobi.hpp"
#include "workloads/registry.hpp"

namespace gearsim::exec {
namespace {

/// A scratch directory removed on destruction, for disk-cache tests.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& tag)
      : path(std::filesystem::temp_directory_path() /
             ("gearsim_exec_test_" + tag)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

std::vector<std::string> fingerprints(
    const std::vector<cluster::RunResult>& runs) {
  std::vector<std::string> out;
  out.reserve(runs.size());
  for (const auto& r : runs) out.push_back(to_json(r));
  return out;
}

// ---- cache keys -------------------------------------------------------------

TEST(CacheKeyTest, SensitiveToEverySweepCoordinate) {
  const cluster::ClusterConfig config = cluster::athlon_cluster();
  const CacheKey base = sweep_point_key(config, "J", 4, 2, 0, nullptr);
  EXPECT_NE(base.text,
            sweep_point_key(config, "J2", 4, 2, 0, nullptr).text);
  EXPECT_NE(base.text, sweep_point_key(config, "J", 5, 2, 0, nullptr).text);
  EXPECT_NE(base.text, sweep_point_key(config, "J", 4, 3, 0, nullptr).text);
  EXPECT_NE(base.text, sweep_point_key(config, "J", 4, 2, 1, nullptr).text);
}

TEST(CacheKeyTest, SensitiveToConfigFields) {
  const cluster::ClusterConfig config = cluster::athlon_cluster();
  const CacheKey base = sweep_point_key(config, "J", 4, 2, 0, nullptr);

  cluster::ClusterConfig seeded = config;
  seeded.seed += 1;
  EXPECT_NE(base.text, sweep_point_key(seeded, "J", 4, 2, 0, nullptr).text);

  cluster::ClusterConfig power = config;
  power.power.base = power.power.base + watts(1.0);
  EXPECT_NE(base.text, sweep_point_key(power, "J", 4, 2, 0, nullptr).text);

  cluster::ClusterConfig net = config;
  net.network.latency_jitter += 0.001;
  EXPECT_NE(base.text, sweep_point_key(net, "J", 4, 2, 0, nullptr).text);
}

TEST(CacheKeyTest, EmptyFaultPlanKeysLikeNoPlan) {
  // An empty plan is bit-identical to no plan at run time, so they must
  // share a cache entry; a populated plan must not.
  const cluster::ClusterConfig config = cluster::athlon_cluster();
  const faults::FaultPlan empty;
  faults::FaultPlan crashy(7);
  crashy.crash(1, seconds(5.0));

  const CacheKey none = sweep_point_key(config, "J", 4, 2, 0, nullptr);
  EXPECT_EQ(none.text, sweep_point_key(config, "J", 4, 2, 0, &empty).text);
  EXPECT_NE(none.text, sweep_point_key(config, "J", 4, 2, 0, &crashy).text);
}

TEST(CacheKeyTest, WorkloadSignatureFoldsParameters) {
  workloads::Jacobi::Params p;
  const std::string base = workloads::Jacobi(p).signature();
  p.iterations += 1;
  EXPECT_NE(base, workloads::Jacobi(p).signature());
}

TEST(CacheKeyTest, HexIsStable) {
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  CacheKey k;
  k.hash = 0xcbf29ce484222325ULL;
  EXPECT_EQ(k.hex(), "cbf29ce484222325");
}

/// The crash-plus-link-fault plan the pinned keys and the keyer
/// equivalence test share.
faults::FaultPlan crash_and_link_plan() {
  faults::FaultPlan plan(11);
  plan.crash(1, seconds(0.5));
  net::LinkFaultWindow w;
  w.src = 0;
  w.dst = 2;
  w.from = seconds(0.1);
  w.until = seconds(0.4);
  w.loss_probability = 0.25;
  w.latency_factor = 3.0;
  plan.degrade_link(w);
  return plan;
}

TEST(CacheKeyTest, PinnedKeysAreStable) {
  // Literals from the key layout before keys were built from a cached
  // prefix; they name on-disk store files, so they must never move
  // without a kKeyFormatVersion bump.
  const cluster::ClusterConfig athlon = cluster::athlon_cluster();
  const std::string cg = workloads::make_workload("CG")->signature();
  const auto expect_key = [](const CacheKey& key, const char* hex,
                             std::size_t size) {
    EXPECT_EQ(key.hex(), hex);
    EXPECT_EQ(key.text.size(), size);
    EXPECT_EQ(key.hash, fnv1a(key.text));
  };
  // CG on 4 athlon nodes at gear_index 2, reps 0 and 1.
  expect_key(sweep_point_key(athlon, cg, 4, 2, 0, nullptr),
             "12d345009394a6cd", 682);
  expect_key(sweep_point_key(athlon, cg, 4, 2, 1, nullptr),
             "5c401b1cff8e0e46", 682);
  // The same point on a routed fat tree.
  cluster::ClusterConfig fat = athlon;
  cluster::install_topology(&fat,
                            net::parse_topology("fat-tree:16,16:1,2:1,4"));
  expect_key(sweep_point_key(fat, cg, 4, 2, 0, nullptr), "eaf0faf03d3f6606",
             710);
  // Under a crash plus a lossy, slow link.
  const faults::FaultPlan plan = crash_and_link_plan();
  expect_key(sweep_point_key(athlon, cg, 4, 2, 0, &plan), "7fda89dd626949b5",
             820);
  // A comm-downshift policy point.
  const cluster::PolicyFactory comm(
      [](int) { return std::make_unique<cluster::CommDownshift>(0, 5); });
  expect_key(sweep_point_key(athlon, cg, 4, 0, 0, nullptr, comm.signature()),
             "2f43ba5112a1e93a", 710);
}

TEST(CacheKeyTest, RunnerKeysEqualSweepPointKeys) {
  // SweepRunner::point_key continues a cached prefix; it must produce
  // sweep_point_key's text and hash for every config, plan, policy and
  // repetition the runner can be asked for.
  const auto cg = workloads::make_workload("CG");
  const std::string signature = cg->signature();
  const faults::FaultPlan empty;
  const faults::FaultPlan populated = crash_and_link_plan();
  const std::vector<const faults::FaultPlan*> plans = {nullptr, &empty,
                                                       &populated};
  std::size_t checked = 0;
  for (const char* preset : {"athlon", "sun", "xeon"}) {
    const cluster::ClusterConfig base = cluster::cluster_by_name(preset);
    // Every policy the daemon races, derived from this preset's curve.
    const std::vector<cluster::RunResult> statics =
        SweepRunner(base).gear_sweep(*cg, 4);
    const std::vector<policy::RosterEntry> roster = policy::policy_roster(
        base, statics, policy::PolicyEvaluator::Options{});
    std::vector<const cluster::PolicyFactory*> policies = {nullptr};
    for (const policy::RosterEntry& entry : roster) {
      policies.push_back(&entry.factory);
    }
    for (const char* spec :
         {"flat", "fat-tree:16,16:1,2:1,4", "torus:4x4x4"}) {
      cluster::ClusterConfig config = base;
      cluster::install_topology(&config, net::parse_topology(spec));
      for (const faults::FaultPlan* plan : plans) {
        SweepOptions options;
        options.faults = plan;
        const SweepRunner runner(config, options);
        for (const cluster::PolicyFactory* policy : policies) {
          for (const int rep : {0, 3}) {
            const SweepPoint p{cg.get(), 4, 1, rep, policy};
            const CacheKey expected = sweep_point_key(
                config, signature, p.nodes, p.gear_index, p.rep, plan,
                policy != nullptr ? policy->signature() : std::string());
            const CacheKey got = runner.point_key(p);
            ASSERT_EQ(got.text, expected.text) << preset << " " << spec;
            ASSERT_EQ(got.hash, expected.hash) << preset << " " << spec;
            EXPECT_EQ(runner.point_key(p, signature).text, expected.text);
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 3u * 3u * 3u * 5u * 2u);
}

// ---- result JSON codec ------------------------------------------------------

TEST(ResultIoTest, RoundTripsAPlainRun) {
  const cluster::ExperimentRunner runner(cluster::athlon_cluster());
  const cluster::RunResult r = runner.run(workloads::Jacobi(), 4, 2);
  const std::string json = to_json(r);
  const cluster::RunResult back = result_from_json(json);
  EXPECT_EQ(json, to_json(back));
  EXPECT_EQ(back.nodes, r.nodes);
  EXPECT_EQ(back.gear_index, r.gear_index);
  EXPECT_EQ(back.wall.value(), r.wall.value());  // Exact, not NEAR.
  EXPECT_EQ(back.energy.value(), r.energy.value());
  EXPECT_EQ(back.node_energy.size(), r.node_energy.size());
  EXPECT_EQ(back.breakdown.ranks.size(), r.breakdown.ranks.size());
}

TEST(ResultIoTest, RoundTripsFaultsAndPolicyFields) {
  cluster::ClusterConfig config = cluster::athlon_cluster();
  config.sample_power = true;
  const cluster::ExperimentRunner runner(config);

  faults::FaultPlan plan(11);
  plan.crash(1, seconds(2.0));
  plan.drop_meter(0, seconds(0.5), seconds(1.5));
  faults::CheckpointConfig ckpt;
  ckpt.interval = seconds(3.0);
  plan.with_checkpointing(ckpt);

  cluster::CommDownshift policy(0, 5);
  cluster::RunOptions options;
  options.policy = &policy;
  options.faults = &plan;
  const cluster::RunResult r = runner.run(workloads::Jacobi(), 4, options);

  const std::string json = to_json(r);
  const cluster::RunResult back = result_from_json(json);
  EXPECT_EQ(json, to_json(back));
  EXPECT_TRUE(back.policy_run);
  EXPECT_EQ(back.outcome, r.outcome);
  EXPECT_EQ(back.retries, r.retries);
  EXPECT_EQ(back.fault_events.size(), r.fault_events.size());
  EXPECT_EQ(back.sampled_energy.has_value(), r.sampled_energy.has_value());
}

TEST(ResultIoTest, RejectsMalformedInput) {
  EXPECT_THROW((void)result_from_json("{"), ContractError);
  EXPECT_THROW((void)result_from_json("{}"), ContractError);
  EXPECT_THROW((void)result_from_json("[1,2]"), ContractError);
  EXPECT_THROW((void)result_from_json(""), ContractError);
}

// ---- ResultCache ------------------------------------------------------------

cluster::RunResult small_result(int nodes) {
  cluster::RunResult r;
  r.nodes = nodes;
  r.wall = seconds(1.0 + nodes);
  return r;
}

CacheKey key_of(const std::string& text) {
  CacheKey k;
  k.text = text;
  k.hash = fnv1a(text);
  return k;
}

TEST(ResultCacheTest, HitMissAndCounters) {
  ResultCache cache;
  const CacheKey k = key_of("point-a");
  EXPECT_FALSE(cache.lookup(k).has_value());
  cache.insert(k, small_result(3));
  const auto hit = cache.lookup(k);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->nodes, 3);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.lookups(), 2u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  ResultCache::Options options;
  options.capacity = 2;
  ResultCache cache(options);
  cache.insert(key_of("a"), small_result(1));
  cache.insert(key_of("b"), small_result(2));
  (void)cache.lookup(key_of("a"));            // "b" is now least recent.
  cache.insert(key_of("c"), small_result(3)); // Evicts "b".
  EXPECT_TRUE(cache.lookup(key_of("a")).has_value());
  EXPECT_FALSE(cache.lookup(key_of("b")).has_value());
  EXPECT_TRUE(cache.lookup(key_of("c")).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCacheTest, DiskStoreSurvivesProcessBoundary) {
  const TempDir dir("disk");
  const CacheKey k = key_of("persisted-point");
  {
    ResultCache::Options options;
    options.disk_dir = dir.path.string();
    ResultCache writer(options);
    writer.insert(k, small_result(5));
  }
  // A fresh cache (simulating a new process) must find it on disk.
  ResultCache::Options options;
  options.disk_dir = dir.path.string();
  ResultCache reader(options);
  const auto hit = reader.lookup(k);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->nodes, 5);
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  EXPECT_EQ(reader.stats().misses, 0u);
}

TEST(ResultCacheTest, HashCollisionReadsAsMiss) {
  // Two different keys forced onto the same disk file (same hash field):
  // the stored key text mismatches the probe, so the lookup must miss
  // rather than return the other point's result.
  const TempDir dir("collide");
  ResultCache::Options options;
  options.disk_dir = dir.path.string();
  ResultCache cache(options);

  CacheKey a = key_of("first");
  CacheKey b = key_of("second");
  b.hash = a.hash;  // Forced collision: same file name.
  cache.insert(a, small_result(1));

  ResultCache fresh(options);
  EXPECT_FALSE(fresh.lookup(b).has_value());
  EXPECT_TRUE(fresh.lookup(a).has_value());
}

TEST(ResultCacheTest, CorruptDiskEntryReadsAsMiss) {
  const TempDir dir("corrupt");
  ResultCache::Options options;
  options.disk_dir = dir.path.string();
  const CacheKey k = key_of("mangled");
  {
    ResultCache writer(options);
    writer.insert(k, small_result(2));
  }
  // Truncate the entry mid-JSON.
  const std::string file = dir.path.string() + "/" + k.hex() + ".json";
  {
    std::ofstream out(file, std::ios::trunc);
    out << "{\"key\":\"" << k.text << "\",\"result\":{\"nodes\":";
  }
  ResultCache reader(options);
  EXPECT_FALSE(reader.lookup(k).has_value());
  EXPECT_EQ(reader.stats().misses, 1u);
}

TEST(ResultCacheTest, ShardDigitsOutsideZeroToSixteenAreRejected) {
  // A hash has 16 hex digits; a wider shard prefix is a caller error,
  // not something to clamp quietly.
  ResultCache::Options options;
  options.shard_digits = 17;
  EXPECT_THROW(ResultCache cache(options), ContractError);
  options.shard_digits = -1;
  EXPECT_THROW(ResultCache cache(options), ContractError);
  options.shard_digits = 16;
  EXPECT_NO_THROW(ResultCache cache(options));
}

// ---- store v3 crash consistency ---------------------------------------------

std::string entry_path(const TempDir& dir, const CacheKey& k) {
  return dir.path.string() + "/" + k.hex() + ".json";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(StoreTest, TruncatedEntryIsQuarantinedAndRecomputed) {
  const TempDir dir("truncated");
  ResultCache::Options options;
  options.disk_dir = dir.path.string();
  const CacheKey k = key_of("torn-write");
  {
    ResultCache writer(options);
    writer.insert(k, small_result(4));
  }
  const std::string path = entry_path(dir, k);
  const std::string whole = read_file(path);
  write_file(path, whole.substr(0, whole.size() / 2));  // Torn write.

  ResultCache reader(options);
  EXPECT_FALSE(reader.lookup(k).has_value());
  EXPECT_EQ(reader.stats().corrupt, 1u);
  EXPECT_EQ(reader.stats().quarantined, 1u);
  EXPECT_EQ(reader.stats().misses, 1u);
  // Quarantined out of the live directory, preserved for post-mortem.
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(dir.path / kQuarantineDir /
                                      (k.hex() + ".json")));

  // Recompute-and-reinsert replaces the entry byte-identically: the
  // store's contents depend only on (key, result), never on history.
  reader.insert(k, small_result(4));
  EXPECT_EQ(read_file(path), whole);
}

TEST(StoreTest, BitFlipFailsChecksumAndQuarantines) {
  const TempDir dir("bitflip");
  ResultCache::Options options;
  options.disk_dir = dir.path.string();
  const CacheKey k = key_of("flipped");
  {
    ResultCache writer(options);
    writer.insert(k, small_result(7));
  }
  const std::string path = entry_path(dir, k);
  std::string bytes = read_file(path);
  bytes[bytes.size() - 10] ^= 0x20;  // One flipped bit in the payload.
  write_file(path, bytes);

  ResultCache reader(options);
  EXPECT_FALSE(reader.lookup(k).has_value());
  EXPECT_EQ(reader.stats().corrupt, 1u);
  const StoreValidation v = validate_store_bytes(bytes);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("checksum"), std::string::npos);
}

TEST(StoreTest, HeaderlessLegacyEntryIsQuarantined) {
  const TempDir dir("legacy");
  ResultCache::Options options;
  options.disk_dir = dir.path.string();
  const CacheKey k = key_of("old-format");
  // A pre-v3 entry: bare payload, no integrity header.
  write_file(entry_path(dir, k), "{\"key\":\"" + k.text +
                                     "\",\"result\":{\"nodes\":1}}\n");
  ResultCache reader(options);
  EXPECT_FALSE(reader.lookup(k).has_value());
  EXPECT_EQ(reader.stats().corrupt, 1u);
  EXPECT_EQ(reader.stats().quarantined, 1u);
}

TEST(StoreTest, ValidChecksumUndecodableResultIsQuarantined) {
  // A hand-edited entry whose header was dutifully recomputed: bytes are
  // self-consistent but the result JSON no longer decodes.  The read
  // path's std::exception net (not just ContractError) must catch it.
  const TempDir dir("handedit");
  ResultCache::Options options;
  options.disk_dir = dir.path.string();
  const CacheKey k = key_of("edited");
  const std::string payload = "{\"format\":" + std::to_string(3) +
                              ",\"key\":\"" + k.text +
                              "\",\"result\":{\"nonsense\":true}}\n";
  std::ostringstream entry;
  entry << "gearsim-store v3 len=" << payload.size() << " fnv1a=" << std::hex
        << std::setw(16) << std::setfill('0') << fnv1a(payload) << "\n"
        << payload;
  write_file(entry_path(dir, k), entry.str());

  ResultCache reader(options);
  EXPECT_FALSE(reader.lookup(k).has_value());
  EXPECT_EQ(reader.stats().corrupt, 1u);
  EXPECT_EQ(reader.stats().quarantined, 1u);
}

TEST(StoreTest, StaleTmpFileIsSweptNotServed) {
  const TempDir dir("staletmp");
  ResultCache::Options options;
  options.disk_dir = dir.path.string();
  const CacheKey k = key_of("interrupted");
  // A writer died between write and rename: only the temp file exists.
  const std::string tmp = entry_path(dir, k) + ".tmp.123.0";
  write_file(tmp, render_store_entry(k.text, small_result(9)));

  ResultCache reader(options);
  EXPECT_EQ(reader.stats().stale_tmp_swept, 1u);
  EXPECT_FALSE(std::filesystem::exists(tmp));
  EXPECT_FALSE(reader.lookup(k).has_value());  // Never served from tmp.
  EXPECT_EQ(reader.stats().misses, 1u);
}

TEST(StoreTest, RenameFailpointLeavesOnlyTmpBehind) {
  const TempDir dir("renamefail");
  ResultCache::Options options;
  options.disk_dir = dir.path.string();
  const CacheKey k = key_of("never-renamed");
  {
    ResultCache writer(options);
    const util::ScopedFailpoint fp("exec.store.rename.fail", {});
    writer.insert(k, small_result(3));
  }
  EXPECT_FALSE(std::filesystem::exists(entry_path(dir, k)));

  // The "crashed" writer's temp file is swept by the next construction,
  // and the point reads as a plain miss (memory tier aside).
  ResultCache reader(options);
  EXPECT_EQ(reader.stats().stale_tmp_swept, 1u);
  EXPECT_FALSE(reader.lookup(k).has_value());
}

TEST(StoreTest, TruncateFailpointProducesDetectableCorruption) {
  const TempDir dir("truncfp");
  ResultCache::Options options;
  options.disk_dir = dir.path.string();
  const CacheKey k = key_of("torn-by-failpoint");
  {
    ResultCache writer(options);
    util::FailpointSpec spec;
    spec.arg = 40;  // Keep only the first 40 bytes.
    const util::ScopedFailpoint fp("exec.store.write.truncate", spec);
    writer.insert(k, small_result(6));
  }
  ResultCache reader(options);
  EXPECT_FALSE(reader.lookup(k).has_value());
  EXPECT_EQ(reader.stats().corrupt, 1u);
}

TEST(StoreTest, VerifyAndScrubWalkTheStore) {
  const TempDir dir("walk");
  ResultCache::Options options;
  options.disk_dir = dir.path.string();
  const CacheKey good = key_of("good");
  const CacheKey bad = key_of("bad");
  {
    ResultCache writer(options);
    writer.insert(good, small_result(1));
    writer.insert(bad, small_result(2));
  }
  const std::string bad_path = entry_path(dir, bad);
  const std::string whole = read_file(bad_path);
  write_file(bad_path, whole.substr(0, 30));
  write_file(entry_path(dir, good) + ".tmp.99.1", "leftover");

  const StoreReport verified = verify_store(dir.path.string());
  EXPECT_EQ(verified.scanned, 2u);
  EXPECT_EQ(verified.valid, 1u);
  ASSERT_EQ(verified.corrupt.size(), 1u);
  EXPECT_EQ(verified.corrupt[0], bad_path);
  EXPECT_EQ(verified.stale_tmp.size(), 1u);
  EXPECT_FALSE(verified.clean());
  EXPECT_EQ(verified.quarantined, 0u);  // verify is read-only
  EXPECT_TRUE(std::filesystem::exists(bad_path));

  const StoreReport scrubbed = scrub_store(dir.path.string());
  EXPECT_EQ(scrubbed.quarantined, 1u);
  EXPECT_EQ(scrubbed.removed_tmp, 1u);
  EXPECT_FALSE(std::filesystem::exists(bad_path));
  EXPECT_TRUE(std::filesystem::exists(dir.path / kQuarantineDir /
                                      (bad.hex() + ".json")));

  const StoreReport after = verify_store(dir.path.string());
  EXPECT_TRUE(after.clean());
  EXPECT_EQ(after.scanned, 1u);
}

TEST(StoreTest, QuarantineCollisionKeepsBothCopies) {
  const TempDir dir("collide2");
  ResultCache::Options options;
  options.disk_dir = dir.path.string();
  const CacheKey k = key_of("twice-corrupt");
  for (int round = 0; round < 2; ++round) {
    {
      ResultCache writer(options);
      writer.insert(k, small_result(round + 1));
    }
    const std::string path = entry_path(dir, k);
    write_file(path, read_file(path).substr(0, 25));
    ResultCache reader(options);
    EXPECT_FALSE(reader.lookup(k).has_value());
    EXPECT_EQ(reader.stats().quarantined, 1u);
  }
  // Both corrupt generations survive under distinct quarantine names.
  std::size_t quarantined = 0;
  for (const auto& e :
       std::filesystem::directory_iterator(dir.path / kQuarantineDir)) {
    if (e.is_regular_file()) ++quarantined;
  }
  EXPECT_EQ(quarantined, 2u);
}

/// A key whose file name (and shard) is chosen by the test: the hash only
/// names the file, the text is what lookups and preload compare.
CacheKey key_with_hash(const std::string& text, std::uint64_t hash) {
  CacheKey k;
  k.text = text;
  k.hash = hash;
  return k;
}

/// A store holding everything a walk must classify: flat entries in the
/// root, entries in shards "aa" and "bb", a `.tmp.` leftover in "aa", a
/// corrupt entry in "bb", quarantined files at the root and in "aa", an
/// `.evicted` ledger in "bb", a stray notes.txt, and a `.json` file two
/// levels deep.  The last four are never entries.
struct WalkFixture {
  CacheKey flat_a = key_with_hash("flat-a", 0x1000000000000001ULL);
  CacheKey flat_b = key_with_hash("flat-b", 0x2000000000000002ULL);
  CacheKey aa_1 = key_with_hash("aa-1", 0xaa00000000000001ULL);
  CacheKey aa_2 = key_with_hash("aa-2", 0xaa00000000000002ULL);
  CacheKey bb_0 = key_with_hash("bb-0", 0xbb00000000000000ULL);  // corrupt
  CacheKey bb_1 = key_with_hash("bb-1", 0xbb00000000000001ULL);
  std::string tmp;

  explicit WalkFixture(const TempDir& dir) {
    const std::string root = dir.path.string();
    {
      ResultCache::Options flat;
      flat.disk_dir = root;
      ResultCache writer(flat);
      writer.insert(flat_a, small_result(1));
      writer.insert(flat_b, small_result(2));
    }
    {
      ResultCache::Options sharded;
      sharded.disk_dir = root;
      sharded.shard_digits = 2;
      ResultCache writer(sharded);
      writer.insert(aa_1, small_result(3));
      writer.insert(aa_2, small_result(4));
      writer.insert(bb_0, small_result(5));
      writer.insert(bb_1, small_result(6));
    }
    const std::string corrupt = path(dir, bb_0);
    write_file(corrupt, read_file(corrupt).substr(0, 30));
    tmp = path(dir, aa_1) + ".tmp.77.0";
    write_file(tmp, render_store_entry(aa_1.text, small_result(3)));
    std::filesystem::create_directories(dir.path / kQuarantineDir);
    std::filesystem::create_directories(dir.path / "aa" / kQuarantineDir);
    std::filesystem::create_directories(dir.path / "aa" / "deeper");
    write_file((dir.path / kQuarantineDir / "old.json").string(), "x");
    write_file((dir.path / "aa" / kQuarantineDir / "old.json").string(), "x");
    write_file((dir.path / "bb" / ".evicted").string(), "3\n");
    write_file((dir.path / "notes.txt").string(), "not an entry\n");
    write_file((dir.path / "aa" / "deeper" / "z.json").string(),
               render_store_entry("deep", small_result(7)));
  }

  static std::string path(const TempDir& dir, const CacheKey& k) {
    const std::string hex = k.hex();
    if (hex.rfind("aa", 0) == 0 || hex.rfind("bb", 0) == 0) {
      return (dir.path / hex.substr(0, 2) / (hex + ".json")).string();
    }
    return (dir.path / (hex + ".json")).string();
  }
};

std::uint64_t file_bytes(const std::string& path) {
  return std::filesystem::file_size(path);
}

TEST(StoreTest, EveryWalkSeesTheSameEntries) {
  {
    const TempDir dir("everywalk_verify");
    const WalkFixture f(dir);
    const StoreReport report = verify_store(dir.path.string());
    EXPECT_EQ(report.scanned, 6u);
    EXPECT_EQ(report.valid, 5u);
    ASSERT_EQ(report.corrupt.size(), 1u);
    EXPECT_EQ(report.corrupt[0], WalkFixture::path(dir, f.bb_0));
    ASSERT_EQ(report.stale_tmp.size(), 1u);
    EXPECT_EQ(report.stale_tmp[0], f.tmp);

    const StoreStats stats = store_stats(dir.path.string());
    ASSERT_EQ(stats.shards.size(), 3u);
    EXPECT_EQ(stats.shards[0].name, ".");
    EXPECT_EQ(stats.shards[0].entries, 2u);
    EXPECT_EQ(stats.shards[0].bytes,
              file_bytes(WalkFixture::path(dir, f.flat_a)) +
                  file_bytes(WalkFixture::path(dir, f.flat_b)));
    EXPECT_EQ(stats.shards[0].quarantined, 1u);
    EXPECT_EQ(stats.shards[0].evictions, 0u);
    EXPECT_EQ(stats.shards[1].name, "aa");
    EXPECT_EQ(stats.shards[1].entries, 2u);
    EXPECT_EQ(stats.shards[1].bytes,
              file_bytes(WalkFixture::path(dir, f.aa_1)) +
                  file_bytes(WalkFixture::path(dir, f.aa_2)));
    EXPECT_EQ(stats.shards[1].quarantined, 1u);
    EXPECT_EQ(stats.shards[1].evictions, 0u);
    EXPECT_EQ(stats.shards[2].name, "bb");
    EXPECT_EQ(stats.shards[2].entries, 2u);
    EXPECT_EQ(stats.shards[2].bytes,
              file_bytes(WalkFixture::path(dir, f.bb_0)) +
                  file_bytes(WalkFixture::path(dir, f.bb_1)));
    EXPECT_EQ(stats.shards[2].quarantined, 0u);
    EXPECT_EQ(stats.shards[2].evictions, 3u);
  }
  {
    // Construction sweeps the temp file; preload loads the five valid
    // entries and quarantines the corrupt one, as a lookup would.
    const TempDir dir("everywalk_preload");
    const WalkFixture f(dir);
    ResultCache::Options options;
    options.disk_dir = dir.path.string();
    options.shard_digits = 2;
    ResultCache cache(options);
    EXPECT_EQ(cache.stats().stale_tmp_swept, 1u);
    EXPECT_FALSE(std::filesystem::exists(f.tmp));
    EXPECT_EQ(cache.preload(), 5u);
    EXPECT_EQ(cache.size(), 5u);
    EXPECT_EQ(cache.stats().corrupt, 1u);
    EXPECT_EQ(cache.stats().quarantined, 1u);
    EXPECT_TRUE(std::filesystem::exists(dir.path / "bb" / kQuarantineDir /
                                        (f.bb_0.hex() + ".json")));
    EXPECT_TRUE(cache.lookup(f.flat_a).has_value());
    EXPECT_TRUE(cache.lookup(f.aa_2).has_value());
    EXPECT_EQ(cache.stats().disk_hits, 0u);
  }
  {
    // Budget seeding reads the same entry list (the corrupt file is an
    // entry until a read proves otherwise): refreshing bb-1 under a
    // budget of one evicts the unvalidated bb-0 and continues bb's ledger.
    const TempDir dir("everywalk_budget");
    const WalkFixture f(dir);
    ResultCache::Options options;
    options.disk_dir = dir.path.string();
    options.shard_digits = 2;
    options.shard_entry_budget = 1;
    ResultCache cache(options);
    cache.insert(f.bb_1, small_result(6));
    EXPECT_EQ(cache.stats().disk_evictions, 1u);
    EXPECT_FALSE(std::filesystem::exists(WalkFixture::path(dir, f.bb_0)));
    EXPECT_TRUE(std::filesystem::exists(WalkFixture::path(dir, f.bb_1)));
    EXPECT_EQ(read_file((dir.path / "bb" / ".evicted").string()), "4\n");
    // A new key in "aa" overflows it by two: both seeded entries go, and
    // neither the quarantine nor the nested file is ever an entry.
    const CacheKey aa_3 = key_with_hash("aa-3", 0xaa00000000000003ULL);
    cache.insert(aa_3, small_result(8));
    EXPECT_EQ(cache.stats().disk_evictions, 3u);
    EXPECT_FALSE(std::filesystem::exists(WalkFixture::path(dir, f.aa_1)));
    EXPECT_FALSE(std::filesystem::exists(WalkFixture::path(dir, f.aa_2)));
    EXPECT_TRUE(std::filesystem::exists(WalkFixture::path(dir, aa_3)));
    EXPECT_TRUE(std::filesystem::exists(dir.path / "aa" / "deeper" / "z.json"));
    EXPECT_TRUE(std::filesystem::exists(dir.path / "aa" / kQuarantineDir /
                                        "old.json"));
    EXPECT_TRUE(std::filesystem::exists(WalkFixture::path(dir, f.flat_a)));
    const StoreStats stats = store_stats(dir.path.string());
    EXPECT_EQ(stats.total_entries(), 4u);
    EXPECT_EQ(stats.total_evictions(), 6u);
  }
}

// ---- SweepRunner determinism ------------------------------------------------

TEST(SweepRunnerTest, ValidatesPointsUpFront) {
  const SweepRunner runner(cluster::athlon_cluster());
  const workloads::Jacobi jacobi;
  EXPECT_THROW((void)runner.run({SweepPoint{nullptr, 2, 0, 0}}),
               ContractError);
  EXPECT_THROW((void)runner.run({SweepPoint{&jacobi, 0, 0, 0}}),
               ContractError);
  EXPECT_THROW((void)runner.run({SweepPoint{&jacobi, 11, 0, 0}}),
               ContractError);
  EXPECT_THROW((void)runner.run({SweepPoint{&jacobi, 2, 6, 0}}),
               ContractError);
  EXPECT_THROW((void)runner.run({SweepPoint{&jacobi, 2, 0, -1}}),
               ContractError);
}

TEST(SweepRunnerTest, BitIdenticalAcrossJobCounts) {
  // The determinism contract: jobs=1 and jobs=8 produce byte-identical
  // results (to_json covers every field) in the same order.
  const workloads::Jacobi jacobi;
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions wide;
  wide.jobs = 8;
  const SweepRunner a(cluster::athlon_cluster(), serial);
  const SweepRunner b(cluster::athlon_cluster(), wide);

  const auto ra = a.grid(jacobi, {1, 2, 4});
  const auto rb = b.grid(jacobi, {1, 2, 4});
  ASSERT_EQ(ra.size(), rb.size());
  EXPECT_EQ(fingerprints(ra), fingerprints(rb));
}

TEST(SweepRunnerTest, MatchesExperimentRunnerGearSweep) {
  // SweepRunner is a scheduling layer, not a different simulator: its
  // gear sweep must equal ExperimentRunner::gear_sweep bit for bit.
  const workloads::Jacobi jacobi;
  const cluster::ExperimentRunner direct(cluster::athlon_cluster());
  SweepOptions options;
  options.jobs = 4;
  const SweepRunner sweep(cluster::athlon_cluster(), options);
  EXPECT_EQ(fingerprints(direct.gear_sweep(jacobi, 4)),
            fingerprints(sweep.gear_sweep(jacobi, 4)));
}

TEST(SweepRunnerTest, RepeatMatchesRunRepeatedSeeds) {
  // The one repetition rule: rep r is a plain run under (seed + r,
  // jitter_seed + r), pinned byte for byte against a hand-shifted config.
  const workloads::Jacobi jacobi;
  const cluster::ClusterConfig base = cluster::athlon_cluster();
  const SweepRunner sweep(base);
  const auto repeated = sweep.repeat(jacobi, 2, 1, 3);
  ASSERT_EQ(repeated.size(), 3u);
  for (std::uint64_t r = 0; r < repeated.size(); ++r) {
    cluster::ClusterConfig shifted = base;
    shifted.seed = base.seed + r;
    shifted.network.jitter_seed = base.network.jitter_seed + r;
    EXPECT_EQ(to_json(cluster::ExperimentRunner(shifted).run(jacobi, 2, 1)),
              to_json(repeated[r]))
        << "rep " << r;
  }
  // The shift is real: neighbouring reps differ.
  EXPECT_NE(to_json(repeated[0]), to_json(repeated[1]));
}

// ---- the sweep fan-out ------------------------------------------------------

/// Rank 0 logs which point ran (node count, gear) and on which thread.
class RecordingWorkload final : public cluster::Workload {
 public:
  struct Entry {
    int nodes = 0;
    std::size_t gear = 0;
    std::thread::id thread;
  };

  [[nodiscard]] std::string name() const override { return "recording"; }
  void run(cluster::RankContext& ctx) const override {
    ctx.compute_upm(100.0, 1e3);
    if (ctx.rank() != 0) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    log_.push_back({ctx.nprocs(), ctx.gear(), std::this_thread::get_id()});
  }
  [[nodiscard]] std::vector<Entry> log() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return log_;
  }

 private:
  mutable std::mutex mutex_;
  mutable std::vector<Entry> log_;
};

/// Every (nodes, gear) pair with nodes in [1, max_nodes], nodes-major.
std::vector<SweepPoint> every_point(const cluster::Workload& workload,
                                    int max_nodes) {
  std::vector<SweepPoint> points;
  for (int nodes = 1; nodes <= max_nodes; ++nodes) {
    for (std::size_t g = 0; g < 6; ++g) {
      points.push_back(SweepPoint{&workload, nodes, g, 0});
    }
  }
  return points;
}

TEST(Parallel, CoversEveryIndexExactlyOnce) {
  const RecordingWorkload recording;
  SweepOptions options;
  options.jobs = 8;
  const SweepRunner runner(cluster::athlon_cluster(), options);
  const auto points = every_point(recording, 8);
  EXPECT_EQ(runner.run(points).size(), points.size());
  std::vector<int> hits(points.size(), 0);
  for (const auto& e : recording.log()) {
    ++hits[static_cast<std::size_t>(e.nodes - 1) * 6 + e.gear];
  }
  EXPECT_EQ(hits, std::vector<int>(points.size(), 1));
}

TEST(Parallel, SerialFallbackForOneJob) {
  // jobs = 1 runs inline on the calling thread, in index order.
  const RecordingWorkload recording;
  SweepOptions options;
  options.jobs = 1;
  const SweepRunner runner(cluster::athlon_cluster(), options);
  const auto points = every_point(recording, 2);
  (void)runner.run(points);
  const auto log = recording.log();
  ASSERT_EQ(log.size(), points.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].nodes, points[i].nodes) << i;
    EXPECT_EQ(log[i].gear, points[i].gear_index) << i;
    EXPECT_EQ(log[i].thread, std::this_thread::get_id()) << i;
  }
}

TEST(Parallel, ZeroIterationsIsANoOp) {
  SweepOptions options;
  options.jobs = 4;
  const SweepRunner runner(cluster::athlon_cluster(), options);
  EXPECT_TRUE(runner.run({}).empty());
  const SweepOutcome outcome = runner.run_isolated({});
  EXPECT_TRUE(outcome.results.empty());
  EXPECT_TRUE(outcome.ok());
}

TEST(Parallel, ResolveJobsContract) {
  EXPECT_EQ(resolve_jobs(3), 3);
  EXPECT_GE(resolve_jobs(-1), 1);  // Hardware concurrency, at least 1.
  EXPECT_GE(resolve_jobs(0), 1);   // Env default (serial unless overridden).
}

/// Sets or unsets GEARSIM_SWEEP_JOBS; restores the old value on
/// destruction.
class ScopedJobsEnv {
 public:
  ScopedJobsEnv() {
    if (const char* old = std::getenv(kName)) saved_ = std::string(old);
  }
  ~ScopedJobsEnv() {
    if (saved_) {
      ::setenv(kName, saved_->c_str(), 1);
    } else {
      ::unsetenv(kName);
    }
  }
  ScopedJobsEnv(const ScopedJobsEnv&) = delete;
  ScopedJobsEnv& operator=(const ScopedJobsEnv&) = delete;

  static void set(const char* value) {
    if (value == nullptr) {
      ::unsetenv(kName);
    } else {
      ::setenv(kName, value, 1);
    }
  }

 private:
  static constexpr const char* kName = "GEARSIM_SWEEP_JOBS";
  std::optional<std::string> saved_;
};

TEST(Parallel, DefaultJobsParsesTheEnvironmentStrictly) {
  const ScopedJobsEnv guard;
  const std::string past_int_max =
      std::to_string(static_cast<long long>(INT_MAX) + 1);
  const struct {
    const char* value;  // nullptr = unset.
    int expected;
  } cases[] = {
      {nullptr, 1}, {"", 1},    {"0", 1}, {"-3", 1},
      {"abc", 1},   {"4x", 1},  {past_int_max.c_str(), 1},
      {"99999999999999999999999", 1}, {"3", 3},
  };
  for (const auto& c : cases) {
    ScopedJobsEnv::set(c.value);
    EXPECT_EQ(default_jobs(), c.expected)
        << (c.value != nullptr ? c.value : "<unset>");
    EXPECT_EQ(resolve_jobs(0), c.expected)
        << (c.value != nullptr ? c.value : "<unset>");
  }
  EXPECT_GE(resolve_jobs(-1), 1);
}

TEST(SweepRunnerTest, ColdAndWarmCacheAreByteIdentical) {
  const workloads::Jacobi jacobi;
  const TempDir dir("warm");
  ResultCache::Options cache_options;
  cache_options.disk_dir = dir.path.string();

  std::vector<std::string> cold;
  {
    ResultCache cache(cache_options);
    SweepOptions options;
    options.jobs = 2;
    options.cache = &cache;
    const SweepRunner runner(cluster::athlon_cluster(), options);
    cold = fingerprints(runner.gear_sweep(jacobi, 2));
    EXPECT_EQ(cache.stats().misses, 6u);
    EXPECT_EQ(cache.stats().hits, 0u);
  }
  // Same process, warm memory+disk: every point must hit and match.
  {
    ResultCache cache(cache_options);  // Fresh memory; disk is warm.
    SweepOptions options;
    options.jobs = 2;
    options.cache = &cache;
    const SweepRunner runner(cluster::athlon_cluster(), options);
    const auto warm = fingerprints(runner.gear_sweep(jacobi, 2));
    EXPECT_EQ(cold, warm);
    EXPECT_EQ(cache.stats().disk_hits, 6u);
    EXPECT_EQ(cache.stats().misses, 0u);
  }
}

TEST(SweepRunnerTest, CacheDistinguishesFaultPlans) {
  // A faulty sweep must not be served a fault-free cached result.
  const workloads::Jacobi jacobi;
  ResultCache cache;

  SweepOptions clean;
  clean.cache = &cache;
  const SweepRunner clean_runner(cluster::athlon_cluster(), clean);
  const auto clean_runs = clean_runner.run({SweepPoint{&jacobi, 2, 0, 0}});

  faults::FaultPlan plan(3);
  plan.straggle(1, seconds(0.0), seconds(100.0), 5);
  SweepOptions faulty = clean;
  faulty.faults = &plan;
  const SweepRunner faulty_runner(cluster::athlon_cluster(), faulty);
  const auto faulty_runs = faulty_runner.run({SweepPoint{&jacobi, 2, 0, 0}});

  EXPECT_EQ(cache.stats().misses, 2u);  // No cross-contamination.
  EXPECT_NE(to_json(clean_runs[0]), to_json(faulty_runs[0]));
}

TEST(SweepRunnerTest, ExceptionInOnePointPropagates) {
  // BT requires a square node count; the failure must surface even when
  // other points of the same parallel sweep succeed.
  const auto bt = workloads::make_workload("BT");
  const workloads::Jacobi jacobi;
  SweepOptions options;
  options.jobs = 4;
  const SweepRunner runner(cluster::athlon_cluster(), options);
  EXPECT_THROW((void)runner.run({SweepPoint{&jacobi, 4, 0, 0},
                                 SweepPoint{bt.get(), 8, 0, 0}}),
               ContractError);
}

}  // namespace
}  // namespace gearsim::exec
