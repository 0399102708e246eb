// gearsim — command-line front end for the simulator.
//
//   gearsim list
//   gearsim run   --workload CG --nodes 4 [--gear 2] [--cluster athlon]
//   gearsim sweep --workload CG --nodes 4 [--jobs N] [--cache DIR]
//                 [--repeat R] [--csv] [--keep-going] [--retries K]
//                 [--watchdog S] [--cluster athlon]
//   gearsim space --workload LU [--jobs N] [--cache DIR] [--csv]
//   gearsim model --workload SP --target 64
//   gearsim faults --workload CG --nodes 4 --rate 2 [--interval 30]
//   gearsim policy --workload CG --nodes 8 [--jobs N] [--cache DIR]
//                  [--svg FILE] [--cluster athlon]
//   gearsim sched --script jobs.ll [--cap 1100] [--nodes 10] [--idle 85]
//                 [--discipline greedy] [--no-arbitration]
//                 [--outage 120:2:180] [--jobs N] [--cache DIR]
//   gearsim cache verify|scrub|stats [--dir DIR]
//   gearsim serve [--socket PATH] [--cache DIR] [--preload] ...
//   gearsim query [--socket PATH] [--type sweep] [--workload CG] ...
//
// `run` executes one experiment and prints its full measurement record;
// `sweep` prints one energy-time curve (optionally CSV for replotting);
// `space` sweeps every valid (nodes x gear) configuration; `model` runs
// the paper's five-step methodology and predicts a larger cluster;
// `faults` re-runs an experiment under an unreliable cluster (crashes,
// flaky links) with checkpoint/restart accounting — see docs/FAULTS.md;
// `policy` races the adaptive DVFS roster against the static gear sweep
// on one (workload, nodes) cell — see docs/POLICIES.md; `sched` runs a
// LoadLeveler-style job-script queue through the multi-tenant batch
// scheduler under a site power cap with per-event gear arbitration —
// see docs/SCHEDULER.md.
//
// `sweep` and `space` go through exec::SweepRunner: --jobs fans the
// independent points over worker threads (bit-identical to serial),
// --cache DIR skips points already simulated by any earlier invocation
// (content-addressed; see docs/EXECUTOR.md).  `sweep --keep-going` runs
// through exec::SweepRunner::run_isolated instead: one failing point no
// longer fails the sweep — completed gears print, failures are reported,
// and the exit code is 1 (see docs/RESILIENCE.md).
//
// `cache verify` walks a result-store directory validating every entry
// (header, length, FNV-1a checksum, JSON decode) read-only; `cache
// scrub` additionally quarantines corrupt entries into .quarantine/ and
// removes stale temp files; `cache stats` prints per-shard occupancy
// (entries, bytes, quarantine backlog, lifetime evictions).
//
// `serve` runs the what-if query daemon: a shared (optionally sharded)
// result cache behind an AF_UNIX socket, with identical-query
// coalescing and bounded admission; `query` is its client — the tables
// it prints are byte-identical to the corresponding local command's.
// See docs/SERVICE.md.
//
// `run`, `sweep`, `space`, `faults`, and `policy` accept
// --metrics PATH: write an obs::RunManifest (config/workload identity,
// deterministic sim metrics, wall timing) there — see
// docs/OBSERVABILITY.md.  --wall-profile additionally records wall-clock
// profiling metrics in the manifest's (never-compared) wall section.
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "cluster/experiment.hpp"
#include "exec/cache_key.hpp"
#include "exec/result_cache.hpp"
#include "exec/store.hpp"
#include "exec/sweep_runner.hpp"
#include "model/analytic.hpp"
#include "model/pipeline.hpp"
#include "model/tradeoff.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "policy/evaluator.hpp"
#include "sched/scheduler.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/statistics.hpp"
#include "util/table.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace gearsim;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = options.find(key);
    return it != options.end() ? it->second : fallback;
  }
  /// The whole token must be an integer: "4x" is an error, not 4.
  [[nodiscard]] int get_int(const std::string& key, int fallback) const {
    const auto it = options.find(key);
    if (it == options.end()) return fallback;
    std::size_t used = 0;
    int value = 0;
    try {
      value = std::stoi(it->second, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    GEARSIM_REQUIRE(used > 0 && used == it->second.size(),
                    "--" + key + " takes an integer, got '" + it->second +
                        "'");
    return value;
  }
  /// The whole token must be a number ("nan" and "inf" parse; callers
  /// bound them): "2x" and "abc" are errors naming the flag.
  [[nodiscard]] double get_double(const std::string& key,
                                  const std::string& fallback) const {
    const std::string text = get(key, fallback);
    std::size_t used = 0;
    double value = 0.0;
    try {
      value = std::stod(text, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    GEARSIM_REQUIRE(used > 0 && used == text.size(),
                    "--" + key + " takes a number, got '" + text + "'");
    return value;
  }
  /// A size or count: an integer that must not be negative.
  [[nodiscard]] std::size_t get_size(const std::string& key,
                                     std::size_t fallback) const {
    const int value = get_int(key, static_cast<int>(fallback));
    GEARSIM_REQUIRE(value >= 0, "--" + key + " must not be negative, got " +
                                    std::to_string(value));
    return static_cast<std::size_t>(value);
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return options.count(key) > 0;
  }
};

std::optional<Args> parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args args;
  args.command = argv[1];
  int first = 2;
  // `cache` takes one positional action (verify|scrub) before options.
  if (args.command == "cache" && first < argc &&
      std::string(argv[first]).rfind("--", 0) != 0) {
    args.options["action"] = argv[first++];
  }
  for (int i = first; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) return std::nullopt;
    token = token.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.options[token] = argv[++i];
    } else {
      args.options[token] = "1";  // Boolean flag.
    }
  }
  return args;
}

/// --metrics PATH support, shared by every measuring command: owns the
/// registry handed to the run/sweep layers and writes the manifest on
/// request.  When --metrics was not given, registry() is null and no
/// instrumentation runs (the disabled path stays bit-identical).
class MetricsSink {
 public:
  MetricsSink(const Args& args, std::string tool)
      : path_(args.get("metrics", "")),
        tool_(std::move(tool)),
        registry_(args.has("wall-profile")),
        start_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] obs::MetricsRegistry* registry() {
    return path_.empty() ? nullptr : &registry_;
  }

  void add_info(std::string key, std::string value) {
    info_.emplace_back(std::move(key), std::move(value));
  }

  /// Identity of the simulated configuration and workload, as cache-key
  /// hashes (full canonical text is huge; the hash identifies it).
  void add_identity(const cluster::ClusterConfig& config,
                    const cluster::Workload& workload) {
    const std::string config_text = exec::canonical_config(config);
    add_info("cluster", config.name);
    add_info("config_sig",
             exec::CacheKey{config_text, exec::fnv1a(config_text)}.hex());
    const std::string wsig = workload.signature();
    add_info("workload", workload.name());
    add_info("workload_sig", exec::CacheKey{wsig, exec::fnv1a(wsig)}.hex());
  }

  /// Write the manifest (no-op without --metrics).  `cache_key_format`
  /// is exec::kKeyFormatVersion for commands that go through the result
  /// cache, 0 for direct runs.
  void write(int cache_key_format) {
    if (path_.empty()) return;
    obs::RunManifest manifest;
    manifest.tool = std::move(tool_);
    manifest.cache_key_format = cache_key_format;
    manifest.info = std::move(info_);
    manifest.metrics = registry_.snapshot();
    manifest.wall_seconds = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start_)
                                .count();
    obs::write_manifest_file(manifest, path_);
    std::cout << "wrote " << path_ << '\n';
  }

 private:
  std::string path_;
  std::string tool_;
  obs::MetricsRegistry registry_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::chrono::steady_clock::time_point start_;
};

/// The cluster preset plus the network/scale overrides shared by every
/// simulating command: --topology SPEC swaps the flat backplane for a
/// routed fat-tree/torus (see docs/NETWORK.md for the grammar), and
/// --max-nodes lifts the preset's node ceiling so topology studies can
/// reach 256+ ranks.  Both overrides are part of the config and thus of
/// the exec cache key — cached flat results are never served to a
/// routed run or vice versa.
cluster::ClusterConfig cluster_from_args(const Args& args) {
  cluster::ClusterConfig config =
      cluster::cluster_by_name(args.get("cluster", "athlon"));
  if (args.has("topology")) {
    cluster::install_topology(
        &config, net::parse_topology(args.get("topology", "flat")));
  }
  if (args.has("max-nodes")) {
    config.max_nodes = args.get_int("max-nodes", config.max_nodes);
  }
  return config;
}

int cmd_list() {
  TextTable table({"name", "valid node counts (athlon)", "notes"});
  cluster::ExperimentRunner runner(cluster::athlon_cluster());
  for (const auto& entry : workloads::all_workloads()) {
    const auto w = entry.make();
    std::string counts;
    for (int n : workloads::paper_node_counts(*w, 10)) {
      if (!counts.empty()) counts += ' ';
      counts += std::to_string(n);
    }
    std::string note;
    if (entry.name == "FT") note = "excluded from the paper's figures";
    if (entry.name.rfind("IS", 0) == 0) note = "excluded (see appendix bench)";
    table.add_row({entry.name, counts, note});
  }
  std::cout << table.to_string();
  return 0;
}

void print_run(const cluster::RunResult& r) {
  TextTable table({"metric", "value"});
  table.add_row({"nodes", std::to_string(r.nodes)});
  // A policy-driven run has no single configured gear: gear_label is the
  // modal per-rank gear, reported as such with the observed range.
  if (r.policy_run) {
    table.add_row({"gear (modal, policy run)", std::to_string(r.gear_label)});
    table.add_row({"gear range (fast..slow)",
                   std::to_string(r.gear_min_index + 1) + " .. " +
                       std::to_string(r.gear_max_index + 1)});
  } else {
    table.add_row({"gear", std::to_string(r.gear_label)});
  }
  table.add_row({"wall time [s]", fmt_fixed(r.wall.value(), 3)});
  table.add_row({"energy [kJ]", fmt_fixed(r.energy.value() / 1e3, 3)});
  table.add_row({"active energy [kJ]",
                 fmt_fixed(r.active_energy.value() / 1e3, 3)});
  table.add_row({"idle energy [kJ]",
                 fmt_fixed(r.idle_energy.value() / 1e3, 3)});
  table.add_row({"mean active power [W]",
                 fmt_fixed(r.mean_active_power.value(), 1)});
  table.add_row({"mean idle power [W]",
                 fmt_fixed(r.mean_idle_power.value(), 1)});
  table.add_row({"T^A (max rank) [s]",
                 fmt_fixed(r.breakdown.active_max.value(), 3)});
  table.add_row({"T^I (derived) [s]",
                 fmt_fixed(r.breakdown.idle_derived.value(), 3)});
  table.add_row({"T^C / T^R [s]",
                 fmt_fixed(r.breakdown.critical.value(), 3) + " / " +
                     fmt_fixed(r.breakdown.reducible.value(), 3)});
  // Gear residency: rank-seconds at each gear, summed over ranks.  Only
  // interesting when the run ever left its configured gear.
  if (r.gear_switches > 0 && !r.gear_residency.empty()) {
    std::vector<double> totals;
    for (const auto& rank : r.gear_residency) {
      if (rank.size() > totals.size()) totals.resize(rank.size(), 0.0);
      for (std::size_t g = 0; g < rank.size(); ++g) {
        totals[g] += rank[g].value();
      }
    }
    std::string residency;
    for (std::size_t g = 0; g < totals.size(); ++g) {
      if (totals[g] <= 0.0) continue;
      if (!residency.empty()) residency += "  ";
      residency += "g" + std::to_string(g + 1) + "=" +
                   fmt_fixed(totals[g], 2);
    }
    table.add_row({"gear residency [rank-s]", residency});
  }
  table.add_row({"MPI calls", std::to_string(r.mpi_calls)});
  table.add_row({"messages", std::to_string(r.messages)});
  table.add_row({"bytes moved [MB]",
                 fmt_fixed(static_cast<double>(r.net_bytes) / 1048576.0, 1)});
  // Resilience rows only when the run actually carried a fault plan, so
  // plain `run` output is untouched.
  if (r.outcome != cluster::RunOutcome::kCompleted || r.retries > 0 ||
      r.retransmissions > 0 || !r.fault_events.empty()) {
    table.add_row({"outcome", to_string(r.outcome)});
    table.add_row({"restarts", std::to_string(r.retries)});
    table.add_row({"rework time [s]", fmt_fixed(r.rework_time.value(), 3)});
    table.add_row({"rework energy [kJ]",
                   fmt_fixed(r.rework_energy.value() / 1e3, 3)});
    table.add_row({"checkpoint overhead [s / kJ]",
                   fmt_fixed(r.checkpoint_time.value(), 3) + " / " +
                       fmt_fixed(r.checkpoint_energy.value() / 1e3, 3)});
    table.add_row({"retransmissions", std::to_string(r.retransmissions)});
    if (r.sampled_energy.has_value()) {
      table.add_row({"meter coverage", fmt_fixed(r.sampled_coverage, 4)});
    }
    if (r.fatal_crash.has_value()) {
      table.add_row({"fatal crash",
                     "node " + std::to_string(r.fatal_crash->node) + " at " +
                         fmt_fixed(r.fatal_crash->at.value(), 3) + " s"});
    }
    table.add_row({"fault events", std::to_string(r.fault_events.size())});
  }
  std::cout << table.to_string();
}

int cmd_run(const Args& args) {
  cluster::ExperimentRunner runner(
      cluster_from_args(args));
  const auto workload = workloads::make_workload(args.get("workload", "CG"));
  const int nodes = args.get_int("nodes", 4);
  const int gear = args.get_int("gear", 1);
  MetricsSink sink(args, "gearsim run");
  cluster::RunOptions options;
  options.gear_index = static_cast<std::size_t>(gear - 1);
  options.metrics = sink.registry();
  print_run(runner.run(*workload, nodes, options));
  sink.add_identity(runner.config(), *workload);
  sink.add_info("nodes", std::to_string(nodes));
  sink.add_info("gear", std::to_string(gear));
  sink.write(0);
  return 0;
}

/// Build the executor options shared by `sweep` and `space`: --jobs for
/// the worker pool, --cache DIR for the content-addressed result store.
/// The returned cache (may be null) must outlive the SweepRunner.
std::unique_ptr<exec::ResultCache> make_sweep_options(
    const Args& args, exec::SweepOptions* options) {
  options->jobs = args.get_int("jobs", 0);
  if (!args.has("cache")) return nullptr;
  exec::ResultCache::Options cache_options;
  cache_options.disk_dir = args.get("cache", "out/cache");
  auto cache = std::make_unique<exec::ResultCache>(cache_options);
  options->cache = cache.get();
  return cache;
}

void print_cache_stats(const exec::ResultCache* cache) {
  if (cache == nullptr) return;
  const exec::CacheStats s = cache->stats();
  std::cout << "cache: " << s.hits << " hit(s), " << s.disk_hits
            << " disk hit(s), " << s.misses << " miss(es)\n";
}

/// The energy-time curve table shared by `sweep` and `query --type
/// sweep`: one row per gear, repetitions averaged, so a daemon-served
/// sweep prints byte-identically to a cold local one.  `runs` is the
/// flat gears x repeat point list in sweep order; a missing entry is a
/// failed rep (--keep-going).
TextTable sweep_table(const cluster::ClusterConfig& config, int repeat,
                      const std::vector<std::optional<cluster::RunResult>>& runs) {
  TextTable table(repeat > 1
                      ? std::vector<std::string>{"gear", "MHz", "time_s",
                                                 "energy_J", "mean_power_W",
                                                 "time_cv"}
                      : std::vector<std::string>{"gear", "MHz", "time_s",
                                                 "energy_J", "mean_power_W"});
  for (std::size_t g = 0; g < config.gears.size(); ++g) {
    RunningStats time_s;
    RunningStats energy_j;
    int gear_label = 0;
    for (int rep = 0; rep < repeat; ++rep) {
      const auto& r = runs[g * static_cast<std::size_t>(repeat) +
                           static_cast<std::size_t>(rep)];
      if (!r.has_value()) continue;  // --keep-going: failed rep.
      time_s.add(r->wall.value());
      energy_j.add(r->energy.value());
      if (gear_label == 0) gear_label = r->gear_label;
    }
    std::vector<std::string> row;
    if (time_s.count() == 0) {
      // Every rep of this gear failed; the failure report below says why.
      row = {std::to_string(g + 1),
             fmt_fixed(config.gears.gear(g).frequency.value() / 1e6, 0),
             "failed", "failed", "failed"};
      if (repeat > 1) row.push_back("failed");
    } else {
      row = {std::to_string(gear_label),
             fmt_fixed(config.gears.gear(g).frequency.value() / 1e6, 0),
             fmt_fixed(time_s.mean(), 3), fmt_fixed(energy_j.mean(), 1),
             fmt_fixed(energy_j.mean() / time_s.mean(), 1)};
      if (repeat > 1) {
        const double cv =
            time_s.mean() > 0.0 ? time_s.stddev() / time_s.mean() : 0.0;
        row.push_back(fmt_fixed(cv, 5));
      }
    }
    table.add_row(row);
  }
  return table;
}

int cmd_sweep(const Args& args) {
  const cluster::ClusterConfig config =
      cluster_from_args(args);
  const auto workload = workloads::make_workload(args.get("workload", "CG"));
  const int nodes = args.get_int("nodes", 4);
  const int repeat = args.get_int("repeat", 1);
  GEARSIM_REQUIRE(repeat >= 1, "--repeat must be at least 1, got " +
                                   std::to_string(repeat));
  MetricsSink sink(args, "gearsim sweep");
  exec::SweepOptions options;
  const auto cache = make_sweep_options(args, &options);
  options.metrics = sink.registry();

  // gears x repetitions as one flat point list, so cache hits and the
  // worker pool cover the repetitions too.
  std::vector<exec::SweepPoint> points;
  for (std::size_t g = 0; g < config.gears.size(); ++g) {
    for (int rep = 0; rep < repeat; ++rep) {
      points.push_back(exec::SweepPoint{workload.get(), nodes, g, rep});
    }
  }

  // --keep-going: isolated execution — failed points are reported and
  // the rest of the curve still prints (exit 1 signals the partial).
  const bool keep_going = args.has("keep-going");
  std::vector<std::optional<cluster::RunResult>> runs;
  exec::SweepOutcome outcome;
  if (keep_going) {
    // --retries K: K attempts after the first, as `gearsim serve` reads it.
    options.max_attempts = 1 + args.get_int("retries", 2);
    options.watchdog_seconds = std::stod(args.get("watchdog", "0"));
    outcome = exec::SweepRunner(config, options).run_isolated(points);
    runs = std::move(outcome.results);
  } else {
    for (auto& r : exec::SweepRunner(config, options).run(points)) {
      runs.emplace_back(std::move(r));
    }
  }

  const TextTable table = sweep_table(config, repeat, runs);
  std::cout << (args.has("csv") ? table.to_csv() : table.to_string());
  print_cache_stats(options.cache);
  if (keep_going && !outcome.ok()) {
    std::cout << outcome.failures.size() << " of " << points.size()
              << " job(s) failed (" << outcome.retries << " retr"
              << (outcome.retries == 1 ? "y" : "ies") << "):\n"
              << outcome.report();
  }
  for (std::size_t index : outcome.runaway) {
    std::cout << "watchdog: job #" << index << " exceeded "
              << fmt_fixed(options.watchdog_seconds, 3)
              << " s of wall time\n";
  }
  sink.add_identity(config, *workload);
  sink.add_info("nodes", std::to_string(nodes));
  sink.add_info("repeat", std::to_string(repeat));
  sink.write(exec::kKeyFormatVersion);
  return keep_going && !outcome.ok() ? 1 : 0;
}

int cmd_cache(const Args& args) {
  // Result-store integrity tooling over exec/store.hpp: `verify` is a
  // read-only walk, `scrub` repairs by quarantine (corrupt entries move
  // to .quarantine/ so the next sweep recomputes them) and removes temp
  // leftovers.  verify exits 1 when anything is wrong, for CI gating.
  const std::string action = args.get("action", "");
  const std::string dir = args.get("dir", "out/cache");
  if (action == "verify") {
    const exec::StoreReport report = exec::verify_store(dir);
    std::cout << "store " << dir << ": " << report.to_string();
    return report.clean() ? 0 : 1;
  }
  if (action == "scrub") {
    const exec::StoreReport report = exec::scrub_store(dir);
    std::cout << "store " << dir << ": " << report.to_string();
    return 0;
  }
  if (action == "stats") {
    // Per-shard occupancy of a (possibly sharded) store: entry and byte
    // counts, quarantine backlog, and the lifetime eviction total from
    // each shard's .evicted ledger.  Read-only.
    const exec::StoreStats stats = exec::store_stats(dir);
    TextTable table({"shard", "entries", "bytes", "quarantined", "evictions"});
    for (const exec::ShardStats& s : stats.shards) {
      table.add_row({s.name, std::to_string(s.entries),
                     std::to_string(s.bytes), std::to_string(s.quarantined),
                     std::to_string(s.evictions)});
    }
    table.add_row({"total", std::to_string(stats.total_entries()),
                   std::to_string(stats.total_bytes()),
                   std::to_string(stats.total_quarantined()),
                   std::to_string(stats.total_evictions())});
    std::cout << "store " << dir << " (" << stats.shards.size()
              << " shard(s)):\n"
              << table.to_string();
    return 0;
  }
  std::cerr << "gearsim cache: expected an action, verify, scrub or stats\n";
  return 2;
}

int cmd_space(const Args& args) {
  const cluster::ClusterConfig config =
      cluster_from_args(args);
  const auto workload = workloads::make_workload(args.get("workload", "LU"));
  MetricsSink sink(args, "gearsim space");
  exec::SweepOptions options;
  const auto cache = make_sweep_options(args, &options);
  options.metrics = sink.registry();
  const exec::SweepRunner runner(config, options);
  const std::vector<int> node_counts =
      workloads::paper_node_counts(*workload, config.max_nodes);
  const auto runs = runner.grid(*workload, node_counts);
  TextTable table({"nodes", "gear", "time_s", "energy_J"});
  std::size_t i = 0;
  for (int n : node_counts) {
    for (std::size_t g = 0; g < config.gears.size(); ++g, ++i) {
      const auto& r = runs[i];
      table.add_row({std::to_string(n), std::to_string(r.gear_label),
                     fmt_fixed(r.wall.value(), 3),
                     fmt_fixed(r.energy.value(), 1)});
    }
  }
  std::cout << (args.has("csv") ? table.to_csv() : table.to_string());
  print_cache_stats(options.cache);
  sink.add_identity(config, *workload);
  sink.write(exec::kKeyFormatVersion);
  return 0;
}

int cmd_model(const Args& args) {
  cluster::ExperimentRunner athlon(cluster::athlon_cluster());
  cluster::ExperimentRunner sun(cluster::sun_cluster());
  const auto workload = workloads::make_workload(args.get("workload", "SP"));
  const int target = args.get_int("target", 32);
  model::ScalingModel::Options opts;
  opts.primary_nodes = workloads::paper_node_counts(*workload, 9);
  opts.validation_nodes = workloads::paper_node_counts(*workload, 32);
  const auto scaling =
      model::ScalingModel::build(athlon, sun, *workload, opts);
  const model::ScalingReport& rep = scaling.report();
  std::cout << "F_s = " << fmt_fixed(rep.amdahl_primary.serial_fraction, 4)
            << ", communication " << to_string(rep.comm_primary.shape())
            << ", reducible fraction "
            << fmt_fixed(rep.reducible_fraction, 3) << "\n\n";
  const model::Curve curve = scaling.predicted_curve(target);
  TextTable table({"gear", "time_s", "energy_J"});
  for (const auto& p : curve.points) {
    table.add_row({std::to_string(p.gear_label),
                   fmt_fixed(p.time.value(), 3),
                   fmt_fixed(p.energy.value(), 1)});
  }
  std::cout << "Predicted curve on " << target << " nodes:\n"
            << (args.has("csv") ? table.to_csv() : table.to_string());
  return 0;
}

int cmd_faults(const Args& args) {
  // One experiment on an unreliable cluster.  --rate is per-node crashes
  // per hour; with a checkpoint policy (default) the run restarts from
  // the last checkpoint, with --no-restart the first crash is fatal.
  cluster::ExperimentRunner runner(
      cluster_from_args(args));
  const auto workload = workloads::make_workload(args.get("workload", "CG"));
  const int nodes = args.get_int("nodes", 4);
  const int gear = args.get_int("gear", 1);
  const double rate_per_hour = args.get_double("rate", "0");
  GEARSIM_REQUIRE(std::isfinite(rate_per_hour) && rate_per_hour >= 0.0,
                  "--rate must be finite and non-negative, got " +
                      args.get("rate", "0"));
  const double loss = args.get_double("loss", "0");
  GEARSIM_REQUIRE(loss >= 0.0 && loss <= 1.0,
                  "--loss must be in [0, 1], got " + args.get("loss", "0"));
  const bool restart = !args.has("no-restart");
  const double interval = restart ? args.get_double("interval", "30") : 0.0;
  GEARSIM_REQUIRE(!restart || (std::isfinite(interval) && interval > 0.0),
                  "--interval must be finite and positive, got " +
                      args.get("interval", "30"));
  const auto seed =
      static_cast<std::uint64_t>(std::stoull(args.get("seed", "42")));

  // Size the crash horizon from the fault-free wall time (restarts can
  // stretch the run well past it).
  const cluster::RunResult solid =
      runner.run(*workload, nodes, static_cast<std::size_t>(gear - 1));
  const std::string horizon_text =
      args.get("horizon", std::to_string(50.0 * solid.wall.value()));
  const double horizon = args.get_double("horizon", horizon_text);
  GEARSIM_REQUIRE(std::isfinite(horizon) && horizon > 0.0,
                  "--horizon must be finite and positive, got " +
                      horizon_text);

  faults::FaultPlan plan(seed);
  if (rate_per_hour > 0.0) {
    plan.random_crashes(rate_per_hour / 3600.0,
                        static_cast<std::size_t>(nodes), seconds(horizon));
  }
  if (loss > 0.0) {
    net::LinkFaultWindow window;
    window.loss_probability = loss;
    plan.degrade_link(window);
  }
  if (restart) {
    faults::CheckpointConfig ckpt;
    ckpt.interval = seconds(interval);
    plan.with_checkpointing(ckpt);
  }

  MetricsSink sink(args, "gearsim faults");
  cluster::RunOptions options;
  options.gear_index = static_cast<std::size_t>(gear - 1);
  options.faults = &plan;
  options.metrics = sink.registry();
  const cluster::RunResult r = runner.run(*workload, nodes, options);
  std::cout << "fault-free wall " << fmt_fixed(solid.wall.value(), 3)
            << " s, energy " << fmt_fixed(solid.energy.value() / 1e3, 3)
            << " kJ; " << plan.crashes().size()
            << " crash(es) scheduled\n";
  print_run(r);
  sink.add_identity(runner.config(), *workload);
  sink.add_info("nodes", std::to_string(nodes));
  sink.add_info("gear", std::to_string(gear));
  sink.add_info("seed", std::to_string(seed));
  sink.add_info("rate_per_hour", args.get("rate", "0"));
  sink.write(0);
  return 0;
}

/// Parse --outage "at:lost[:repair]" (comma-separated for several).
std::vector<sched::NodeOutage> parse_outages(const std::string& spec) {
  std::vector<sched::NodeOutage> outages;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string item =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? spec.size() : comma + 1;
    const std::size_t c1 = item.find(':');
    if (c1 == std::string::npos) {
      throw ContractError("malformed --outage item (want at:lost[:repair]): " +
                          item);
    }
    const std::size_t c2 = item.find(':', c1 + 1);
    sched::NodeOutage outage;
    outage.at = seconds(std::stod(item.substr(0, c1)));
    outage.nodes_lost = std::stoi(
        item.substr(c1 + 1, c2 == std::string::npos ? c2 : c2 - c1 - 1));
    if (c2 != std::string::npos) {
      outage.repair_after = seconds(std::stod(item.substr(c2 + 1)));
    }
    outages.push_back(outage);
  }
  return outages;
}

int cmd_sched(const Args& args) {
  // The multi-tenant batch scheduler end to end: parse a LoadLeveler-
  // style job script, measure a profile per distinct workload through
  // the sweep executor (--jobs / --cache as in `sweep`), and schedule
  // the queue under the site power cap with gear arbitration at every
  // event (--no-arbitration freezes placement gears — the control arm).
  // See docs/SCHEDULER.md.
  if (!args.has("script")) {
    std::cerr << "gearsim sched: --script FILE is required\n";
    return 2;
  }
  const std::string path = args.get("script", "");
  std::ifstream in(path);
  if (!in) {
    std::cerr << "gearsim sched: cannot read " << path << '\n';
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const std::vector<sched::JobScript> scripts =
      sched::parse_job_scripts(text.str());

  const cluster::ClusterConfig config = cluster_from_args(args);
  sched::Machine machine;
  machine.nodes = args.get_int("nodes", 10);
  machine.power_cap = watts(std::stod(args.get("cap", "1500")));
  machine.idle_node_power = watts(std::stod(args.get("idle", "85")));

  MetricsSink sink(args, "gearsim sched");
  exec::SweepOptions sweep_options;
  const auto cache = make_sweep_options(args, &sweep_options);
  const exec::SweepRunner runner(config, sweep_options);

  // One profile per distinct workload, no wider than any of its jobs
  // ever needs (narrower profiles = fewer simulated points).
  std::map<std::string, int> width;
  for (const auto& s : scripts) {
    int& w = width[s.workload];
    w = std::max(w, std::min(s.total_tasks,
                             std::min(machine.nodes, config.max_nodes)));
  }
  std::map<std::string, sched::WorkloadProfile> profiles;
  for (const auto& [name, max_nodes] : width) {
    const auto workload = workloads::make_workload(name);
    profiles.emplace(
        name, sched::WorkloadProfile::measure(runner, *workload, max_nodes));
  }
  std::vector<sched::BatchJob> jobs;
  for (const auto& s : scripts) {
    jobs.push_back({s, &profiles.at(s.workload)});
  }

  sched::BatchOptions options;
  options.discipline = args.get("discipline", "fifo") == "greedy"
                           ? sched::QueueDiscipline::kGreedy
                           : sched::QueueDiscipline::kFifo;
  options.arbitrate = !args.has("no-arbitration");
  const std::vector<sched::NodeOutage> outages =
      parse_outages(args.get("outage", ""));
  const sched::BatchScheduler scheduler(machine, options);
  const sched::BatchResult r =
      scheduler.schedule(jobs, outages, sink.registry());

  TextTable table({"job", "workload", "policy", "nodes", "gears", "shifts",
                   "start_s", "end_s", "energy_kJ"});
  for (const auto& p : r.placements) {
    table.add_row({p.job_id, p.workload, to_string(p.tag),
                   std::to_string(p.nodes),
                   std::to_string(p.start_gear_label) + "->" +
                       std::to_string(p.final_gear_label),
                   std::to_string(p.gear_changes),
                   fmt_fixed(p.start.value(), 1), fmt_fixed(p.end.value(), 1),
                   fmt_fixed(p.energy.value() / 1e3, 1)});
  }
  std::cout << (args.has("csv") ? table.to_csv() : table.to_string())
            << "makespan " << fmt_fixed(r.makespan.value(), 1)
            << " s, energy " << fmt_fixed(r.total_energy().value() / 1e3, 1)
            << " kJ (jobs " << fmt_fixed(r.job_energy.value() / 1e3, 1)
            << ", idle " << fmt_fixed(r.idle_energy.value() / 1e3, 1)
            << ", wasted " << fmt_fixed(r.wasted_energy.value() / 1e3, 1)
            << ")\n"
            << "peak draw " << fmt_fixed(r.peak_power.value(), 1)
            << " W under cap " << fmt_fixed(machine.power_cap.value(), 1)
            << " W (min headroom " << fmt_fixed(r.min_headroom.value(), 1)
            << " W)\n"
            << r.arbitrations << " arbitration(s), "
            << fmt_fixed(r.redistributed_watts.value(), 1)
            << " W redistributed, " << r.preemptions << " preemption(s), "
            << r.wall_limit_kills << " wall-limit kill(s)\n";
  print_cache_stats(sweep_options.cache);
  sink.add_info("cluster", config.name);
  sink.add_info("script", path);
  sink.add_info("jobs", std::to_string(jobs.size()));
  sink.add_info("cap_w", args.get("cap", "1500"));
  sink.write(exec::kKeyFormatVersion);
  return 0;
}

int cmd_policy(const Args& args) {
  // The full adaptive-DVFS roster vs the static gear sweep on one cell.
  // Goes through exec::SweepRunner, so --jobs and --cache apply and two
  // invocations are bit-identical (see docs/POLICIES.md).
  const cluster::ClusterConfig config =
      cluster_from_args(args);
  const auto workload = workloads::make_workload(args.get("workload", "CG"));
  const int nodes = args.get_int("nodes", 8);

  MetricsSink sink(args, "gearsim policy");
  exec::SweepOptions sweep_options;
  const auto cache = make_sweep_options(args, &sweep_options);
  policy::PolicyEvaluator::Options options;
  options.jobs = sweep_options.jobs;
  options.cache = sweep_options.cache;
  options.metrics = sink.registry();
  const policy::PolicyEvaluator evaluator(config, options);

  const policy::Evaluation eval = evaluator.evaluate(*workload, nodes);
  std::cout << policy_table(eval);
  print_cache_stats(options.cache);
  if (args.has("svg")) {
    const std::string path = args.get("svg", "policy.svg");
    policy_figure(eval.workload + ": static gears vs adaptive policies",
                  eval)
        .write(path);
    std::cout << "wrote " << path << '\n';
  }
  sink.add_identity(config, *workload);
  sink.add_info("nodes", std::to_string(nodes));
  sink.write(exec::kKeyFormatVersion);
  return 0;
}

int cmd_trace(const Args& args) {
  // One run with full instrumentation artifacts: the per-call CSV and the
  // per-rank activity timeline SVG.
  cluster::ExperimentRunner runner(
      cluster_from_args(args));
  const auto workload = workloads::make_workload(args.get("workload", "CG"));
  const int nodes = args.get_int("nodes", 4);
  const int gear = args.get_int("gear", 1);
  const std::string stem = args.get("out", "trace");
  cluster::RunOptions options;
  options.gear_index = static_cast<std::size_t>(gear - 1);
  options.trace_csv_path = stem + ".csv";
  options.timeline_svg_path = stem + ".svg";
  const cluster::RunResult r = runner.run(*workload, nodes, options);
  std::cout << "wrote " << options.trace_csv_path << " (" << r.mpi_calls
            << " calls) and " << options.timeline_svg_path << '\n'
            << "wall " << fmt_fixed(r.wall.value(), 2) << " s, T^A "
            << fmt_fixed(r.breakdown.active_max.value(), 2) << " s, T^I "
            << fmt_fixed(r.breakdown.idle_derived.value(), 2) << " s\n";
  return 0;
}

int cmd_advise(const Args& args) {
  // The paper's Table-1 metric as a tool: given two counter readings
  // (uops and L2 misses -> UPM) and a delay budget, recommend a gear and
  // predict the whole curve -- no run needed.
  const cluster::ClusterConfig config =
      cluster_from_args(args);
  const cpu::CpuModel cpu_model(config.cpu, config.gears);
  const cpu::PowerModel power_model(config.power, config.gears);
  const double upm = std::stod(args.get("upm", "50"));
  const double budget = std::stod(args.get("max-delay", "0.05"));
  const model::Curve curve = model::analytic_single_node_curve(
      cpu_model, power_model, upm, seconds(1.0));
  TextTable table({"gear", "predicted slowdown", "predicted energy"});
  for (const auto& point : curve.points) {
    table.add_row({std::to_string(point.gear_label),
                   fmt_percent(point.time.value() - 1.0),
                   fmt_percent(point.energy / curve.points[0].energy - 1.0)});
  }
  std::cout << "UPM " << fmt_fixed(upm, 1) << " (uops per L2 miss):\n"
            << table.to_string();
  const std::size_t gear =
      model::advise_gear_for_delay(cpu_model, upm, budget);
  std::cout << "Within a " << fmt_percent(budget) << " delay budget: gear "
            << config.gears.gear(gear).label << " ("
            << fmt_percent(model::predicted_energy_delta(cpu_model,
                                                         power_model, upm,
                                                         gear))
            << " energy)\n";
  return 0;
}

int cmd_serve(const Args& args) {
  // The what-if daemon: one shared sharded result cache behind an
  // AF_UNIX socket, answering run/sweep/race/stats queries until a
  // shutdown request arrives.  See docs/SERVICE.md.
  serve::ServiceOptions options;
  options.cache.disk_dir = args.get("cache", "");
  options.cache.capacity = args.get_size("capacity", 4096);
  options.cache.shard_digits = args.get_int("shard-digits", 2);
  options.cache.shard_entry_budget = args.get_size("shard-budget", 0);
  options.preload = args.has("preload");
  options.jobs = args.get_int("jobs", 0);
  options.retries = args.get_int("retries", 0);
  options.admission.admit = args.get_size("admit", 64);
  options.admission.queue = args.get_size("queue", 256);
  options.retry_after_ms =
      static_cast<int>(args.get_size("retry-after-ms", 250));
  options.wall_profile = args.has("wall-profile");

  serve::Service service(std::move(options));
  serve::Daemon::Options daemon_options;
  daemon_options.socket_path = args.get("socket", "gearsim.sock");
  serve::Daemon daemon(service, daemon_options);
  daemon.start();
  std::cout << "gearsim serve: listening on " << daemon.socket_path()
            << (service.cache().stats().preloaded > 0
                    ? " (" +
                          std::to_string(service.cache().stats().preloaded) +
                          " entr" +
                          (service.cache().stats().preloaded == 1 ? "y"
                                                                  : "ies") +
                          " preloaded)"
                    : std::string())
            << std::endl;
  daemon.wait();
  daemon.stop();
  const exec::CacheStats cache = service.cache().stats();
  const serve::AdmissionGate::Stats gate = service.admission_stats();
  std::cout << "gearsim serve: " << service.simulations()
            << " simulation(s), " << cache.hits + cache.disk_hits
            << " cache hit(s), " << gate.rejected << " rejected\n";
  return 0;
}

int cmd_query(const Args& args) {
  // One query against a running daemon.  --json sends a raw request
  // line; otherwise the request is assembled from the same flags the
  // local commands take.  --raw prints the response line instead of the
  // rendered table (tables are byte-identical to the local command's).
  const serve::Client client(args.get("socket", "gearsim.sock"));
  std::string line;
  if (args.has("json")) {
    line = args.get("json", "");
  } else {
    serve::Request request;
    request.type = args.get("type", "sweep");
    request.cluster = args.get("cluster", request.cluster);
    request.workload = args.get("workload", request.workload);
    request.nodes = args.get_int("nodes", request.nodes);
    request.gear = args.get_int("gear", request.gear);
    request.rep = args.get_int("rep", request.rep);
    request.repeat = args.get_int("repeat", request.repeat);
    request.topology = args.get("topology", request.topology);
    line = serve::render_request(request);
  }
  const std::string response_line = client.request(line);
  if (args.has("raw")) {
    std::cout << response_line << '\n';
    return 0;
  }

  const json::Value response = json::parse(response_line);
  const json::Object& obj = response.as_object();
  const std::string status = json::field(obj, "status").as_string();
  if (status == "rejected") {
    // Deterministic backpressure, not an error: exit 3 so callers can
    // distinguish "retry later" from a failed query.
    std::cerr << "gearsim query: rejected, retry after "
              << json::field(obj, "retry_after_ms").as_int() << " ms\n";
    return 3;
  }
  if (status == "error") {
    std::cerr << "gearsim query: " << json::field(obj, "error").as_string()
              << '\n';
    return 1;
  }

  const std::string type = json::field(obj, "type").as_string();
  if (type == "run") {
    print_run(serve::results_from_response(response).at(0));
  } else if (type == "sweep") {
    const cluster::ClusterConfig config =
        cluster::cluster_by_name(json::field(obj, "cluster").as_string());
    const int repeat = json::field(obj, "repeat").as_int();
    std::vector<std::optional<cluster::RunResult>> runs;
    for (auto& r : serve::results_from_response(response)) {
      runs.emplace_back(std::move(r));
    }
    const TextTable table = sweep_table(config, repeat, runs);
    std::cout << (args.has("csv") ? table.to_csv() : table.to_string());
  } else if (type == "race") {
    std::cout << policy_table(serve::evaluation_from_response(response));
  } else {
    // stats / shutdown acknowledgements are already canonical JSON.
    std::cout << response_line << '\n';
  }
  return 0;
}

int usage() {
  std::cerr <<
      "usage: gearsim <command> [options]\n"
      "  list                              available workloads\n"
      "  run    --workload W --nodes N [--gear G] [--cluster C]\n"
      "  sweep  --workload W --nodes N [--jobs J] [--cache DIR]\n"
      "         [--repeat R] [--csv] [--cluster C] [--keep-going]\n"
      "         [--retries K] [--watchdog S]\n"
      "  cache  verify|scrub|stats [--dir DIR]  result-store integrity\n"
      "  space  --workload W [--jobs J] [--cache DIR] [--csv] [--cluster C]\n"
      "  model  --workload W [--target M] [--csv]\n"
      "  trace  --workload W --nodes N [--gear G] [--out STEM]\n"
      "  advise --upm X [--max-delay F] [--cluster C]\n"
      "  faults --workload W --nodes N [--gear G] [--rate R(/node/h)]\n"
      "         [--loss P] [--interval S] [--seed K] [--horizon S]\n"
      "         [--no-restart] [--cluster C]\n"
      "  policy --workload W --nodes N [--jobs J] [--cache DIR]\n"
      "         [--svg FILE] [--cluster C]\n"
      "  sched  --script FILE [--cap W] [--nodes N] [--idle W]\n"
      "         [--discipline fifo|greedy] [--no-arbitration]\n"
      "         [--outage T:N[:R],..] [--jobs J] [--cache DIR] [--csv]\n"
      "         [--cluster C]          batch queue under a power cap\n"
      "  serve  [--socket PATH] [--cache DIR] [--shard-digits D]\n"
      "         [--shard-budget B] [--capacity N] [--preload] [--jobs J]\n"
      "         [--admit A] [--queue Q] [--retry-after-ms MS] [--retries K]\n"
      "         [--wall-profile]                what-if query daemon\n"
      "  query  [--socket PATH] [--type run|sweep|race|stats|shutdown]\n"
      "         [--workload W] [--nodes N] [--gear G] [--rep R]\n"
      "         [--repeat R] [--cluster C] [--topology SPEC] [--json LINE]\n"
      "         [--raw] [--csv]\n"
      "run/sweep/space/faults/policy/sched also take --metrics PATH (write an\n"
      "observability manifest there) and --wall-profile (include\n"
      "wall-clock profiling metrics in it); see docs/OBSERVABILITY.md\n"
      "run/sweep/space/trace/advise/faults/policy also take\n"
      "  --topology SPEC  routed network instead of the flat backplane:\n"
      "                   flat | fat-tree:<down,..>:<up,..>:<parallel,..>\n"
      "                   | torus:<d0>x<d1>x.. (options :hop_us=X\n"
      "                   :trunk_bw=Y); see docs/NETWORK.md\n"
      "  --max-nodes N    lift the cluster preset's node ceiling\n"
      "clusters: athlon (default), sun, xeon; gears are 1 (fastest) .. 6\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse(argc, argv);
  if (!args) return usage();
  try {
    if (args->command == "list") return cmd_list();
    if (args->command == "run") return cmd_run(*args);
    if (args->command == "sweep") return cmd_sweep(*args);
    if (args->command == "cache") return cmd_cache(*args);
    if (args->command == "space") return cmd_space(*args);
    if (args->command == "model") return cmd_model(*args);
    if (args->command == "advise") return cmd_advise(*args);
    if (args->command == "trace") return cmd_trace(*args);
    if (args->command == "faults") return cmd_faults(*args);
    if (args->command == "policy") return cmd_policy(*args);
    if (args->command == "sched") return cmd_sched(*args);
    if (args->command == "serve") return cmd_serve(*args);
    if (args->command == "query") return cmd_query(*args);
  } catch (const std::exception& e) {
    std::cerr << "gearsim: " << e.what() << '\n';
    return 1;
  }
  return usage();
}
