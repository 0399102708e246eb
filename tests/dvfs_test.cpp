// Tests for the DVFS policy framework: mid-run gear switching, per-rank
// static plans, comm downshift, and the node-bottleneck planner.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "cluster/dvfs.hpp"
#include "model/gear_data.hpp"
#include "workloads/jacobi.hpp"
#include "workloads/registry.hpp"

namespace gearsim::cluster {
namespace {

ExperimentRunner make_runner(double imbalance = 0.01) {
  ClusterConfig config = athlon_cluster();
  config.load_imbalance = imbalance;
  return ExperimentRunner(config);
}

// --- policy objects -------------------------------------------------------------

TEST(Policies, UniformGearNamesAndValues) {
  const UniformGear p(3);
  EXPECT_EQ(p.name(), "uniform(g4)");
  EXPECT_EQ(p.compute_gear(5), 3u);
  EXPECT_EQ(p.comm_gear(5), 3u);
  EXPECT_FALSE(p.shifts_during_comm());
}

TEST(Policies, PerRankGearBounds) {
  const PerRankGear p({0, 2, 5});
  EXPECT_EQ(p.compute_gear(1), 2u);
  EXPECT_THROW((void)p.compute_gear(3), ContractError);
  EXPECT_THROW(PerRankGear({}), ContractError);
}

TEST(Policies, CommDownshiftShiftsOnlyWhenGearsDiffer) {
  const CommDownshift shifting(0, 5);
  EXPECT_TRUE(shifting.shifts_during_comm());
  EXPECT_EQ(shifting.comm_gear(0), 5u);
  const CommDownshift degenerate(2, 2);
  EXPECT_FALSE(degenerate.shifts_during_comm());
  EXPECT_THROW(CommDownshift(4, 1), ContractError);  // Comm faster: invalid.
}

// --- set_gear ------------------------------------------------------------------

TEST(SetGear, PolicyRunChargesSwitchLatency) {
  auto runner = make_runner();
  const auto cg = workloads::make_workload("CG");
  CommDownshift policy(0, 5);
  RunOptions options;
  options.policy = &policy;
  const RunResult shifted = runner.run(*cg, 4, options);
  const RunResult base = runner.run(*cg, 4, 0);
  EXPECT_GT(shifted.gear_switches, 0u);
  EXPECT_EQ(base.gear_switches, 0u);
  // Transitions cost time: the shifted run cannot be faster than the
  // uniform fastest run.
  EXPECT_GE(shifted.wall.value(), base.wall.value());
}

TEST(SetGear, DowshiftDuringCommSavesEnergyOnCommBoundCode) {
  // CG on 8 nodes idles heavily; parking blocked ranks at gear 6 must cut
  // energy versus uniform gear 1.
  auto runner = make_runner();
  const auto cg = workloads::make_workload("CG");
  CommDownshift policy(0, 5);
  RunOptions options;
  options.policy = &policy;
  const RunResult shifted = runner.run(*cg, 8, options);
  const RunResult base = runner.run(*cg, 8, 0);
  EXPECT_LT(shifted.energy.value(), base.energy.value());
  // And the time cost stays modest (slack absorbs the transitions).
  EXPECT_LT(shifted.wall / base.wall, 1.10);
}

TEST(SetGear, DownshiftBarelyAffectsComputeBoundCode) {
  auto runner = make_runner();
  const auto ep = workloads::make_workload("EP");
  CommDownshift policy(0, 5);
  RunOptions options;
  options.policy = &policy;
  const RunResult shifted = runner.run(*ep, 8, options);
  const RunResult base = runner.run(*ep, 8, 0);
  // EP's 3 tiny allreduces: a handful of switches, negligible deltas.
  EXPECT_LT(shifted.gear_switches, 60u);
  EXPECT_NEAR(shifted.wall / base.wall, 1.0, 0.01);
  EXPECT_NEAR(shifted.energy / base.energy, 1.0, 0.01);
}

TEST(SetGear, PerRankGearsProduceMixedPower) {
  auto runner = make_runner(0.0);
  const workloads::Jacobi jacobi;
  PerRankGear policy({0, 5, 0, 5});
  RunOptions options;
  options.policy = &policy;
  const RunResult r = runner.run(jacobi, 4, options);
  // Slow ranks draw less energy than fast ranks.
  EXPECT_LT(r.node_energy[1].total.value(), r.node_energy[0].total.value());
  EXPECT_LT(r.node_energy[3].total.value(), r.node_energy[2].total.value());
  // Mixed gears slow the whole run to ~the slowest rank's pace.
  const RunResult fast = runner.run(jacobi, 4, 0);
  EXPECT_GT(r.wall.value(), fast.wall.value());
}

TEST(SetGear, SwitchLatencyZeroIsFree) {
  ClusterConfig config = athlon_cluster();
  config.gear_switch_latency = Seconds{};
  ExperimentRunner free_runner(config);
  ExperimentRunner paid_runner(athlon_cluster());
  const auto cg = workloads::make_workload("CG");
  CommDownshift policy(0, 5);
  RunOptions options;
  options.policy = &policy;
  const Seconds free_wall = free_runner.run(*cg, 4, options).wall;
  const Seconds paid_wall = paid_runner.run(*cg, 4, options).wall;
  EXPECT_LT(free_wall.value(), paid_wall.value());
}

// --- node-bottleneck planner ------------------------------------------------------

TEST(BottleneckPlanner, NoImbalanceMeansEveryoneFast) {
  auto runner = make_runner(0.0);
  const auto ep = workloads::make_workload("EP");
  const RunResult profile = runner.run(*ep, 4, 0);
  const std::vector<double> ladder = {1.0, 1.1, 1.25, 1.4, 1.6, 2.4};
  const PerRankGear plan = plan_node_bottleneck(profile, ladder);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(plan.compute_gear(r), 0u) << r;
}

TEST(BottleneckPlanner, SlackRanksGetSlowerGears) {
  // Manufacture a profile with one busy rank and three slack ranks.
  RunResult profile;
  profile.breakdown.ranks.resize(4);
  profile.breakdown.ranks[0].active = seconds(100.0);
  profile.breakdown.ranks[1].active = seconds(80.0);
  profile.breakdown.ranks[2].active = seconds(60.0);
  profile.breakdown.ranks[3].active = seconds(40.0);
  profile.breakdown.active_max = seconds(100.0);
  const std::vector<double> ladder = {1.0, 1.11, 1.25, 1.43, 1.67, 2.5};
  const PerRankGear plan = plan_node_bottleneck(profile, ladder, 1.0);
  EXPECT_EQ(plan.compute_gear(0), 0u);  // Critical rank stays fast.
  EXPECT_EQ(plan.compute_gear(1), 2u);  // Budget 1.25.
  EXPECT_EQ(plan.compute_gear(2), 3u);  // Budget 1.666..., just under 1.67.
  EXPECT_EQ(plan.compute_gear(3), 5u);  // Budget 2.5.
}

TEST(BottleneckPlanner, SafetyShrinksTheBudget) {
  RunResult profile;
  profile.breakdown.ranks.resize(2);
  profile.breakdown.ranks[0].active = seconds(100.0);
  profile.breakdown.ranks[1].active = seconds(60.0);
  profile.breakdown.active_max = seconds(100.0);
  const std::vector<double> ladder = {1.0, 1.11, 1.25, 1.43, 1.67, 2.5};
  const PerRankGear cautious = plan_node_bottleneck(profile, ladder, 0.5);
  const PerRankGear bold = plan_node_bottleneck(profile, ladder, 1.0);
  EXPECT_LE(cautious.compute_gear(1), bold.compute_gear(1));
}

TEST(BottleneckPlanner, RejectsBadInput) {
  RunResult profile;
  profile.breakdown.ranks.resize(1);
  profile.breakdown.ranks[0].active = seconds(1.0);
  profile.breakdown.active_max = seconds(1.0);
  const std::vector<double> decreasing = {1.5, 1.0};
  EXPECT_THROW(plan_node_bottleneck(profile, decreasing), ContractError);
  const std::vector<double> ladder = {1.0, 1.2};
  EXPECT_THROW(plan_node_bottleneck(profile, ladder, 0.0), ContractError);
  EXPECT_THROW(plan_node_bottleneck(RunResult{}, ladder), ContractError);
}

TEST(BottleneckPlanner, EndToEndSavesEnergyOnImbalancedRun) {
  // Inflate the imbalance so the plan has real slack to harvest.
  auto runner = make_runner(0.20);
  const auto lu = workloads::make_workload("LU");
  const RunResult profile = runner.run(*lu, 8, 0);
  const model::GearData gear_data = model::measure_gear_data(runner, *lu);
  std::vector<double> ladder;
  for (const auto& g : gear_data.gears) ladder.push_back(g.slowdown);
  PerRankGear plan = plan_node_bottleneck(profile, ladder, 0.9);
  RunOptions options;
  options.policy = &plan;
  const RunResult planned = runner.run(*lu, 8, options);
  EXPECT_LT(planned.energy.value(), profile.energy.value());
  EXPECT_LT(planned.wall / profile.wall, 1.06);
}

TEST(TraceExportOption, WritesCsvFromARun) {
  ExperimentRunner runner(athlon_cluster());
  RunOptions options;
  options.trace_csv_path = "/tmp/gearsim_run_trace.csv";
  const RunResult r =
      runner.run(*workloads::make_workload("MG"), 2, options);
  std::ifstream in(options.trace_csv_path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "rank,call,enter_s,exit_s,duration_s,bytes,peer");
  std::size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, r.mpi_calls);
  std::remove(options.trace_csv_path.c_str());
}

}  // namespace
}  // namespace gearsim::cluster
