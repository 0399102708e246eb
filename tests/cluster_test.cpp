// Tests for the cluster harness: presets, the experiment runner's
// accounting identities, determinism, gear-sweep structure, the online
// breakdown against the stored trace, and teardown of failed runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/dvfs.hpp"
#include "cluster/experiment.hpp"
#include "exec/result_io.hpp"
#include "exec/sweep_runner.hpp"
#include "model/gear_data.hpp"
#include "mpi/comm.hpp"
#include "util/hash.hpp"
#include "util/statistics.hpp"
#include "workloads/jacobi.hpp"
#include "workloads/registry.hpp"

namespace gearsim::cluster {
namespace {

TEST(Presets, AthlonMatchesThePaperMachine) {
  const ClusterConfig c = athlon_cluster();
  EXPECT_EQ(c.max_nodes, 10);
  EXPECT_EQ(c.gears.size(), 6u);
  EXPECT_DOUBLE_EQ(c.gears.fastest().frequency.value(), 2e9);
}

TEST(Presets, SunClusterIsFixedGear32Nodes) {
  const ClusterConfig c = sun_cluster();
  EXPECT_EQ(c.max_nodes, 32);
  EXPECT_EQ(c.gears.size(), 1u);
}

TEST(Presets, XeonClusterHasASharedNoisyNetwork) {
  EXPECT_GT(xeon_cluster().network.latency_jitter, 0.0);
}

TEST(Runner, RejectsInvalidRuns) {
  ExperimentRunner runner(athlon_cluster());
  const workloads::Jacobi jacobi;
  EXPECT_THROW((void)runner.run(jacobi, 0, 0), ContractError);
  EXPECT_THROW((void)runner.run(jacobi, 11, 0), ContractError);   // > max.
  EXPECT_THROW((void)runner.run(jacobi, 2, 6), ContractError);    // Bad gear.
  const auto bt = workloads::make_workload("BT");
  EXPECT_THROW((void)runner.run(*bt, 8, 0), ContractError);       // Not square.
}

TEST(Runner, EnergyIdentityHolds) {
  // total == active + idle; total == sum over nodes; mean powers weighted
  // by the respective times reproduce the energies.
  ExperimentRunner runner(athlon_cluster());
  const RunResult r = runner.run(workloads::Jacobi(), 4, 2);
  EXPECT_NEAR(r.energy.value(),
              (r.active_energy + r.idle_energy).value(),
              1e-6 * r.energy.value());
  Joules per_node{};
  Seconds active_time{};
  Seconds idle_time{};
  for (const auto& ne : r.node_energy) {
    per_node += ne.total;
    active_time += ne.active_time;
    idle_time += ne.idle_time;
  }
  EXPECT_NEAR(per_node.value(), r.energy.value(), 1e-6 * r.energy.value());
  EXPECT_NEAR((r.mean_active_power * active_time).value(),
              r.active_energy.value(), 1e-6 * r.active_energy.value());
  EXPECT_NEAR((r.mean_idle_power * idle_time).value(),
              r.idle_energy.value(), 1e-6 * r.idle_energy.value());
}

TEST(Runner, WallClockIdentities) {
  ExperimentRunner runner(athlon_cluster());
  const RunResult r = runner.run(workloads::Jacobi(), 4, 0);
  // Every node's active+idle time equals the wall clock.
  for (const auto& ne : r.node_energy) {
    EXPECT_NEAR(ne.total_time().value(), r.wall.value(),
                1e-9 + 1e-9 * r.wall.value());
  }
  // Breakdown wall equals run wall; active_max + idle_derived == wall.
  EXPECT_DOUBLE_EQ(r.breakdown.wall.value(), r.wall.value());
  EXPECT_NEAR((r.breakdown.active_max + r.breakdown.idle_derived).value(),
              r.wall.value(), 1e-9);
}

TEST(Runner, RunsAreDeterministic) {
  ExperimentRunner a(athlon_cluster());
  ExperimentRunner b(athlon_cluster());
  const RunResult ra = a.run(workloads::Jacobi(), 6, 3);
  const RunResult rb = b.run(workloads::Jacobi(), 6, 3);
  EXPECT_DOUBLE_EQ(ra.wall.value(), rb.wall.value());
  EXPECT_DOUBLE_EQ(ra.energy.value(), rb.energy.value());
  EXPECT_EQ(ra.messages, rb.messages);
}

TEST(Runner, SeedChangesJitterOnly) {
  ClusterConfig config = athlon_cluster();
  ExperimentRunner a(config);
  config.seed = 777;
  ExperimentRunner b(config);
  const RunResult ra = a.run(workloads::Jacobi(), 4, 0);
  const RunResult rb = b.run(workloads::Jacobi(), 4, 0);
  EXPECT_NE(ra.wall.value(), rb.wall.value());
  EXPECT_NEAR(ra.wall / rb.wall, 1.0, 0.05);  // Jitter is percent-level.
  EXPECT_EQ(ra.messages, rb.messages);
}

TEST(Runner, ZeroImbalanceMakesRanksSymmetric) {
  ClusterConfig config = athlon_cluster();
  config.load_imbalance = 0.0;
  ExperimentRunner runner(config);
  const RunResult r = runner.run(*workloads::make_workload("EP"), 4, 0);
  // Compute is symmetric; tiny spread remains from tree positions in the
  // final allreduce.
  EXPECT_NEAR(r.breakdown.active_mean / r.breakdown.active_max, 1.0, 1e-4);
}

TEST(Runner, GearSweepCoversAllGearsFastestFirst) {
  ExperimentRunner runner(athlon_cluster());
  const auto runs = runner.gear_sweep(workloads::Jacobi(), 2);
  ASSERT_EQ(runs.size(), 6u);
  for (std::size_t g = 0; g < runs.size(); ++g) {
    EXPECT_EQ(runs[g].gear_index, g);
    EXPECT_EQ(runs[g].gear_label, static_cast<int>(g) + 1);
  }
  // Paper invariant: the fastest gear takes the least time.
  for (std::size_t g = 1; g < runs.size(); ++g) {
    EXPECT_GE(runs[g].wall.value(), runs[0].wall.value());
  }
}

TEST(Runner, SlowerGearReducesMeanActivePower) {
  ExperimentRunner runner(athlon_cluster());
  const auto runs = runner.gear_sweep(workloads::Jacobi(), 1);
  for (std::size_t g = 1; g < runs.size(); ++g) {
    EXPECT_LT(runs[g].mean_active_power.value(),
              runs[g - 1].mean_active_power.value());
  }
}

TEST(Runner, SpeedupHelper) {
  ExperimentRunner runner(athlon_cluster());
  const RunResult r1 = runner.run(workloads::Jacobi(), 1, 0);
  const RunResult r4 = runner.run(workloads::Jacobi(), 4, 0);
  EXPECT_NEAR(speedup(r1, r4), r1.wall / r4.wall, 1e-12);
}

TEST(GearData, MeasurementProtocolProducesMonotoneSg) {
  ExperimentRunner runner(athlon_cluster());
  const model::GearData data =
      model::measure_gear_data(runner, *workloads::make_workload("CG"));
  ASSERT_EQ(data.size(), 6u);
  EXPECT_DOUBLE_EQ(data.at(0).slowdown, 1.0);
  for (std::size_t g = 1; g < 6; ++g) {
    EXPECT_GE(data.at(g).slowdown, data.at(g - 1).slowdown);
    EXPECT_LT(data.at(g).active_power.value(),
              data.at(g - 1).active_power.value());
    EXPECT_LT(data.at(g).idle_power.value(), data.at(g).active_power.value());
  }
  EXPECT_THROW((void)data.at(6), ContractError);
}

TEST(GearData, SgBoundedByCycleRatio) {
  ExperimentRunner runner(athlon_cluster());
  for (const char* name : {"EP", "CG", "LU"}) {
    const model::GearData data =
        model::measure_gear_data(runner, *workloads::make_workload(name));
    for (std::size_t g = 0; g < 6; ++g) {
      EXPECT_LE(data.at(g).slowdown,
                runner.config().gears.cycle_time_ratio(g) + 1e-9)
          << name << " gear " << g;
    }
  }
}

TEST(Runner, SunClusterRunsAllNasAt32) {
  ExperimentRunner runner(sun_cluster());
  const auto ep = workloads::make_workload("EP");
  const RunResult r = runner.run(*ep, 32, 0);
  EXPECT_GT(r.wall.value(), 0.0);
  EXPECT_EQ(r.node_energy.size(), 32u);
}

TEST(Runner, XeonClusterIsNoisyAcrossSeeds) {
  // The paper discarded this machine: a shared network makes timings
  // unreliable.  Verify the preset actually produces that behavior.
  ClusterConfig config = xeon_cluster();
  ExperimentRunner a(config);
  config.network.jitter_seed = 1234;
  ExperimentRunner b(config);
  const auto cg = workloads::make_workload("CG");
  const Seconds ta = a.run(*cg, 8, 0).wall;
  const Seconds tb = b.run(*cg, 8, 0).wall;
  EXPECT_NE(ta.value(), tb.value());
}

/// Wall-time statistics of a repeated measurement, in repetition order.
RunningStats wall_stats(const std::vector<RunResult>& runs) {
  RunningStats stats;
  for (const RunResult& r : runs) stats.add(r.wall.value());
  return stats;
}

std::vector<std::string> json_of(const std::vector<RunResult>& runs) {
  std::vector<std::string> out;
  out.reserve(runs.size());
  for (const RunResult& r : runs) out.push_back(exec::to_json(r));
  return out;
}

TEST(Runner, RepeatedRunsQuantifyJitter) {
  const exec::SweepRunner sweep(athlon_cluster());
  const auto runs = sweep.repeat(*workloads::make_workload("MG"), 4, 0, 5);
  ASSERT_EQ(runs.size(), 5u);
  const RunningStats time_s = wall_stats(runs);
  // Different seeds produce different (but close) times.
  EXPECT_GT(time_s.stddev(), 0.0);
  EXPECT_LT(time_s.stddev() / time_s.mean(), 0.03);  // ~1% imbalance.
  EXPECT_NEAR(time_s.mean(), runs[0].wall.value(), 0.05 * runs[0].wall.value());
}

TEST(Runner, RepeatedRunsWithZeroImbalanceAreIdenticalModuloNetwork) {
  ClusterConfig config = athlon_cluster();
  config.load_imbalance = 0.0;
  const exec::SweepRunner sweep(config);
  const RunningStats time_s =
      wall_stats(sweep.repeat(*workloads::make_workload("EP"), 2, 0, 3));
  // EP has (almost) no network sensitivity; the spread collapses.
  EXPECT_LT(time_s.stddev() / time_s.mean(), 1e-6);
}

TEST(Runner, RepeatedRunsRequirePositiveCount) {
  const exec::SweepRunner sweep(athlon_cluster());
  EXPECT_THROW((void)sweep.repeat(*workloads::make_workload("EP"), 1, 0, 0),
               ContractError);
}

TEST(Runner, ParallelSweepsMatchSerialBitForBit) {
  // The sweep fan-out only moves points between threads, it never changes
  // their seeds: SweepRunner at 1 and 8 jobs reproduces the serial
  // ExperimentRunner::gear_sweep, and its repetitions match across job
  // counts.
  const workloads::Jacobi jacobi;
  exec::SweepOptions serial;
  serial.jobs = 1;
  exec::SweepOptions wide;
  wide.jobs = 8;
  const exec::SweepRunner one(athlon_cluster(), serial);
  const exec::SweepRunner eight(athlon_cluster(), wide);
  const auto reference =
      json_of(ExperimentRunner(athlon_cluster()).gear_sweep(jacobi, 4));
  EXPECT_EQ(json_of(one.gear_sweep(jacobi, 4)), reference);
  EXPECT_EQ(json_of(eight.gear_sweep(jacobi, 4)), reference);
  EXPECT_EQ(json_of(one.repeat(jacobi, 2, 0, 4)),
            json_of(eight.repeat(jacobi, 2, 0, 4)));
}

TEST(Runner, UniformRunReportsDegenerateGearRange) {
  ExperimentRunner runner(athlon_cluster());
  const RunResult r = runner.run(workloads::Jacobi(), 2, 3);
  EXPECT_FALSE(r.policy_run);
  EXPECT_EQ(r.gear_index, 3u);
  EXPECT_EQ(r.gear_min_index, 3u);
  EXPECT_EQ(r.gear_max_index, 3u);
}

TEST(Runner, PolicyRunReportsModalAndRangeNotRankZero) {
  // Bugfix regression: gear_index used to echo policy->compute_gear(0),
  // mislabeling mixed-gear runs with whatever rank 0 happened to use.
  // With ranks at gears {5, 1, 1, 1} the honest summary is modal gear 1,
  // range [1, 5] — and rank 0's gear 5 must NOT be reported as "the"
  // gear.
  ExperimentRunner runner(athlon_cluster());
  PerRankGear policy({5, 1, 1, 1});
  RunOptions options;
  options.policy = &policy;
  const RunResult r = runner.run(workloads::Jacobi(), 4, options);
  EXPECT_TRUE(r.policy_run);
  EXPECT_EQ(r.gear_index, 1u);      // Modal, not rank 0's 5.
  EXPECT_EQ(r.gear_min_index, 1u);  // Fastest rank.
  EXPECT_EQ(r.gear_max_index, 5u);  // Slowest rank.
  EXPECT_EQ(r.gear_label, 2);       // Label of the modal gear.
}

TEST(Runner, PolicyModalTieBreaksTowardFasterGear) {
  ExperimentRunner runner(athlon_cluster());
  PerRankGear policy({4, 4, 2, 2});
  RunOptions options;
  options.policy = &policy;
  const RunResult r = runner.run(workloads::Jacobi(), 4, options);
  EXPECT_EQ(r.gear_index, 2u);  // 2 and 4 tie; the faster (lower) wins.
  EXPECT_EQ(r.gear_min_index, 2u);
  EXPECT_EQ(r.gear_max_index, 4u);
}

// --- serial fingerprints at 32 ranks and up ---------------------------------

TEST(Runner, GoldenResultFingerprintsAtScale) {
  // FNV-1a of exec::to_json(RunResult) — every byte a run reports,
  // order hash included — for the NAS codes and Jacobi at 32 ranks and
  // up, seed 1, fastest gear.  Recorded on the serial engine before any
  // kernel change; a process handoff shortcut or an engine rewrite must
  // leave them byte-identical.  Re-pinned once, when results dropped
  // their order-independent set hash: each value is the FNV-1a of the
  // previous build's JSON with only that one member cut out.
  ClusterConfig config = athlon_cluster();
  config.max_nodes = 64;
  config.seed = 1;
  const ExperimentRunner runner(config);
  struct Golden {
    const char* workload;
    int nodes;
    std::uint64_t fingerprint;
  };
  const std::vector<Golden> goldens = {
      {"CG", 32, 0x8d7b0827a2f98bbcULL},
      {"CG", 64, 0x58e8887c2dc38708ULL},
      {"LU", 32, 0xd9bb549fa78e8ac0ULL},
      {"LU", 64, 0xfce4f9082689f26fULL},
      {"MG", 32, 0x1581708788992923ULL},
      {"MG", 64, 0x5e9d22155af54d7cULL},
      {"FT", 32, 0xe8d63d106fc85b9cULL},
      {"FT", 64, 0xe17130a44bffc2b6ULL},
      {"BT", 36, 0x582492079410fd54ULL},
      {"BT", 64, 0x1de9e33fdf1b5db2ULL},
      {"SP", 36, 0x7163619bf108706cULL},
      {"SP", 64, 0x76e676968e668763ULL},
      {"Jacobi", 32, 0x25678fc420715f7eULL},
      {"Jacobi", 64, 0xef3cc0713345b766ULL},
  };
  for (const Golden& g : goldens) {
    const RunResult r =
        runner.run(*workloads::make_workload(g.workload), g.nodes, 0);
    EXPECT_EQ(util::fnv1a(exec::to_json(r)), g.fingerprint)
        << g.workload << " nodes=" << g.nodes;
  }
}

TEST(Runner, EngineThreadsOptionIsIgnored) {
  // Every run executes on the serial engine: asking for engine threads
  // changes no byte of the result and reports no partitions or windows.
  const ExperimentRunner runner(athlon_cluster());
  const auto cg = workloads::make_workload("CG");
  const RunResult plain = runner.run(*cg, 4, 0);
  RunOptions options;
  options.engine_threads = 8;
  const RunResult asked = runner.run(*cg, 4, options);
  EXPECT_EQ(exec::to_json(plain), exec::to_json(asked));
  EXPECT_EQ(asked.engine_partitions, 0u);
  EXPECT_EQ(asked.engine_windows, 0u);
}

TEST(Runner, SpeedupRejectsDegenerateDenominator) {
  ExperimentRunner runner(athlon_cluster());
  const RunResult good = runner.run(workloads::Jacobi(), 1, 0);
  RunResult empty;  // Default-constructed: wall == 0.
  EXPECT_THROW((void)speedup(good, empty), ContractError);
  EXPECT_NO_THROW((void)speedup(empty, good));  // 0/positive is just 0.
}

// --- online breakdown vs the stored trace -----------------------------------

TEST(Runner, TraceExportLeavesResultBytesUnchanged) {
  // The breakdown folds online; a Tracer is attached only to export.  A
  // run with both exports must report the same bytes as one without, and
  // the runner checks the online breakdown against analyze_cluster over
  // the stored records whenever they exist (a mismatch throws).  Every
  // registry workload at 16 ranks, with eager messages, with rendezvous
  // messages (eager threshold lowered) and under a policy that shifts
  // gears inside blocking calls.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "gearsim_cluster_test_export";
  std::filesystem::create_directories(dir);
  ClusterConfig eager = athlon_cluster();
  eager.max_nodes = 16;
  ClusterConfig rendezvous = eager;
  rendezvous.mpi.eager_threshold = kilobytes(1);
  CommDownshift downshift(0, 5);
  struct Variant {
    const char* name;
    const ClusterConfig* config;
    GearPolicy* policy;
  };
  for (const Variant& v : {Variant{"eager", &eager, nullptr},
                           Variant{"rendezvous", &rendezvous, nullptr},
                           Variant{"downshift", &eager, &downshift}}) {
    const ExperimentRunner runner(*v.config);
    for (const auto& entry : workloads::all_workloads()) {
      const auto workload = entry.make();
      if (!workload->supports(16)) continue;
      RunOptions plain;
      plain.policy = v.policy;
      RunOptions exported = plain;
      exported.trace_csv_path = (dir / "trace.csv").string();
      exported.timeline_svg_path = (dir / "timeline.svg").string();
      const RunResult a = runner.run(*workload, 16, plain);
      const RunResult b = runner.run(*workload, 16, exported);
      EXPECT_EQ(exec::to_json(a), exec::to_json(b))
          << entry.name << " " << v.name;
      EXPECT_TRUE(std::filesystem::exists(dir / "trace.csv"));
    }
  }
  std::filesystem::remove_all(dir);
}

// --- failed runs unwind their ranks before the run's locals die -------------

/// Rank 0 passes a barrier and throws; rank 1 is left waiting in
/// recv(0, 1) with a pending request.
class ThrowsAfterBarrier final : public Workload {
 public:
  [[nodiscard]] std::string name() const override {
    return "throws-after-barrier";
  }
  void run(RankContext& ctx) const override {
    ctx.comm().barrier();
    if (ctx.comm().rank() == 0) throw std::runtime_error("rank 0 failed");
    ctx.comm().recv(0, 1);
  }
};

/// Both ranks receive first: a deadlock the engine detects.
class MutualRecv final : public Workload {
 public:
  [[nodiscard]] std::string name() const override { return "mutual-recv"; }
  void run(RankContext& ctx) const override {
    ctx.comm().recv(1 - ctx.comm().rank(), 0);
  }
};

TEST(Runner, RankExceptionPropagatesAfterUnwindingTheOtherRanks) {
  // Rank 1's frames (its MPI call guard and pending request) unwind while
  // the run's World and observers are still alive; the sanitizer build
  // turns a late unwind into a heap-use-after-free.
  const ExperimentRunner runner(athlon_cluster());
  EXPECT_THROW((void)runner.run(ThrowsAfterBarrier(), 2, 0),
               std::runtime_error);
  // The runner is reusable after the failure.
  EXPECT_GT(runner.run(workloads::Jacobi(), 2, 0).wall.value(), 0.0);
}

TEST(Runner, DeadlockPropagatesAfterUnwindingTheBlockedRanks) {
  const ExperimentRunner runner(athlon_cluster());
  EXPECT_THROW((void)runner.run(MutualRecv(), 2, 0), SimulationError);
  EXPECT_GT(runner.run(workloads::Jacobi(), 2, 0).wall.value(), 0.0);
}

}  // namespace
}  // namespace gearsim::cluster
