// Tests for the fault-injection layer: plan construction/validation, the
// checkpoint/restart arithmetic (hand-computed scenarios), the injector's
// realization through the experiment runner, the scheduler's outage
// handling, and the determinism contract (same seeded plan -> bit-identical
// results; empty plan -> bit-identical to a run that never saw the fault
// layer).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <vector>

#include "cluster/experiment.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "faults/restart_model.hpp"
#include "sched/scheduler.hpp"
#include "workloads/jacobi.hpp"

namespace gearsim::faults {
namespace {

// A Jacobi small enough that every fault test runs in milliseconds.
workloads::Jacobi small_jacobi() {
  workloads::Jacobi::Params p;
  p.seq_active = seconds(4.0);
  p.iterations = 40;
  return workloads::Jacobi(p);
}

cluster::ClusterConfig test_cluster() {
  cluster::ClusterConfig config = cluster::athlon_cluster();
  config.max_nodes = 4;
  return config;
}

/// Checkpoint policy used by the hand-computed scenarios: checkpoints at
/// work positions 4 and 8 of a 10 s run, 1 s writes, 2 s restarts.
CheckpointConfig toy_ckpt() {
  CheckpointConfig cfg;
  cfg.interval = seconds(4.0);
  cfg.write_time = seconds(1.0);
  cfg.write_power = watts(50.0);
  cfg.restart_time = seconds(2.0);
  cfg.restart_power = watts(25.0);
  cfg.max_restarts = 16;
  return cfg;
}

void expect_identical(const cluster::RunResult& a,
                      const cluster::RunResult& b) {
  EXPECT_EQ(a.wall.value(), b.wall.value());
  EXPECT_EQ(a.energy.value(), b.energy.value());
  EXPECT_EQ(a.active_energy.value(), b.active_energy.value());
  EXPECT_EQ(a.idle_energy.value(), b.idle_energy.value());
  EXPECT_EQ(a.mean_active_power.value(), b.mean_active_power.value());
  EXPECT_EQ(a.mean_idle_power.value(), b.mean_idle_power.value());
  EXPECT_EQ(a.mpi_calls, b.mpi_calls);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.net_bytes, b.net_bytes);
  EXPECT_EQ(a.gear_switches, b.gear_switches);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.rework_time.value(), b.rework_time.value());
  EXPECT_EQ(a.rework_energy.value(), b.rework_energy.value());
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.sampled_energy.has_value(), b.sampled_energy.has_value());
  if (a.sampled_energy && b.sampled_energy) {
    EXPECT_EQ(a.sampled_energy->value(), b.sampled_energy->value());
  }
  EXPECT_EQ(a.sampled_coverage, b.sampled_coverage);
  ASSERT_EQ(a.node_energy.size(), b.node_energy.size());
  for (std::size_t i = 0; i < a.node_energy.size(); ++i) {
    EXPECT_EQ(a.node_energy[i].total.value(), b.node_energy[i].total.value());
  }
  EXPECT_EQ(a.fault_events.size(), b.fault_events.size());
}

// --- FaultPlan ---------------------------------------------------------------

TEST(FaultPlan, CrashesKeptInTimeOrder) {
  FaultPlan plan;
  plan.crash(0, seconds(5.0)).crash(1, seconds(2.0)).crash(2, seconds(9.0));
  ASSERT_EQ(plan.crashes().size(), 3u);
  EXPECT_EQ(plan.crashes()[0].node, 1u);
  EXPECT_EQ(plan.crashes()[1].node, 0u);
  EXPECT_EQ(plan.crashes()[2].node, 2u);
}

TEST(FaultPlan, RejectsBadWindows) {
  FaultPlan plan;
  EXPECT_THROW(plan.crash(0, seconds(-1.0)), ContractError);
  EXPECT_THROW(plan.straggle(0, seconds(5.0), seconds(5.0), 1), ContractError);
  EXPECT_THROW(plan.drop_meter(0, seconds(2.0), seconds(1.0)), ContractError);
  CheckpointConfig cfg;
  cfg.write_time = seconds(-1.0);
  EXPECT_THROW(plan.with_checkpointing(cfg), ContractError);
}

TEST(FaultPlan, ValidateChecksClusterGeometry) {
  FaultPlan plan;
  plan.crash(7, seconds(1.0));
  EXPECT_THROW(plan.validate(4, 6), ContractError);
  FaultPlan gears;
  gears.straggle(0, seconds(0.0), seconds(1.0), 9);
  EXPECT_THROW(gears.validate(4, 6), ContractError);
}

TEST(FaultPlan, EmptyMeansNothingScheduled) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.with_checkpointing(CheckpointConfig{});
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, RandomCrashesAreSeedDeterministic) {
  FaultPlan a(123);
  FaultPlan b(123);
  FaultPlan c(124);
  a.random_crashes(0.05, 4, seconds(200.0));
  b.random_crashes(0.05, 4, seconds(200.0));
  c.random_crashes(0.05, 4, seconds(200.0));
  ASSERT_FALSE(a.crashes().empty());
  ASSERT_EQ(a.crashes().size(), b.crashes().size());
  for (std::size_t i = 0; i < a.crashes().size(); ++i) {
    EXPECT_EQ(a.crashes()[i].node, b.crashes()[i].node);
    EXPECT_EQ(a.crashes()[i].at.value(), b.crashes()[i].at.value());
  }
  EXPECT_NE(a.crashes().size(), 0u);
  // A different seed draws a different schedule.
  bool differs = a.crashes().size() != c.crashes().size();
  for (std::size_t i = 0; !differs && i < a.crashes().size(); ++i) {
    differs = a.crashes()[i].at.value() != c.crashes()[i].at.value();
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, ZeroRateSchedulesNothing) {
  FaultPlan plan;
  plan.random_crashes(0.0, 4, seconds(100.0));
  EXPECT_TRUE(plan.crashes().empty());
}

TEST(FaultPlan, RandomCrashesKeepTheInsertionOrder) {
  // The reference inserts the same draws one at a time, node by node,
  // each after every crash at an earlier or equal time, which is how the
  // plan was built before it sorted once.
  FaultPlan drawn(77);
  drawn.random_crashes(0.5, 6, seconds(40.0));
  std::vector<CrashEvent> by_node = drawn.crashes();
  ASSERT_GT(by_node.size(), 50u);
  // A node's draws are strictly increasing, so this is the draw order.
  std::sort(by_node.begin(), by_node.end(),
            [](const CrashEvent& a, const CrashEvent& b) {
              return a.node != b.node ? a.node < b.node : a.at < b.at;
            });
  // Earlier crashes, one of them tied with a draw, stay ahead of it.
  const Seconds tie = by_node[by_node.size() / 2].at;
  FaultPlan merged(77);
  merged.crash(5, tie).crash(0, seconds(1e-3));
  merged.random_crashes(0.5, 6, seconds(40.0));
  FaultPlan reference(77);
  reference.crash(5, tie).crash(0, seconds(1e-3));
  for (const CrashEvent& ev : by_node) reference.crash(ev.node, ev.at);
  ASSERT_EQ(merged.crashes().size(), reference.crashes().size());
  for (std::size_t i = 0; i < merged.crashes().size(); ++i) {
    EXPECT_EQ(merged.crashes()[i].node, reference.crashes()[i].node) << i;
    EXPECT_EQ(merged.crashes()[i].at.value(),
              reference.crashes()[i].at.value())
        << i;
  }
}

TEST(FaultPlan, HugeRandomCrashPlansFailFast) {
  // 1e9 crashes per node-hour over 1 s on 4 nodes would draw about 1.1M
  // crashes; the plan stops at its cap instead (quadratic inserts took
  // over 20 s here).  An infinite horizon never ends a node's stream.
  const auto start = std::chrono::steady_clock::now();
  FaultPlan plan(42);
  plan.crash(1, seconds(2.0));
  EXPECT_THROW(plan.random_crashes(1e9 / 3600.0, 4, seconds(1.0)),
               ContractError);
  EXPECT_THROW(plan.random_crashes(
                   1.0, 4, seconds(std::numeric_limits<double>::infinity())),
               ContractError);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(30));
  // A failed call leaves the plan as it was.
  ASSERT_EQ(plan.crashes().size(), 1u);
  EXPECT_EQ(plan.crashes()[0].node, 1u);
}

// --- EnergyProfile -----------------------------------------------------------

TEST(EnergyProfile, FlatProfileIntegratesLinearly) {
  const EnergyProfile p = EnergyProfile::flat(watts(100.0), seconds(10.0));
  EXPECT_DOUBLE_EQ(p.total().value(), 1000.0);
  EXPECT_DOUBLE_EQ(p.between(seconds(0.0), seconds(10.0)).value(), 1000.0);
  EXPECT_DOUBLE_EQ(p.between(seconds(2.0), seconds(4.5)).value(), 250.0);
  // Clamped outside the span; empty/reversed intervals are zero.
  EXPECT_DOUBLE_EQ(p.between(seconds(-5.0), seconds(20.0)).value(), 1000.0);
  EXPECT_DOUBLE_EQ(p.between(seconds(4.0), seconds(4.0)).value(), 0.0);
  EXPECT_DOUBLE_EQ(p.between(seconds(6.0), seconds(2.0)).value(), 0.0);
}

TEST(EnergyProfile, FromMeterMatchesExactIntegral) {
  power::EnergyMeter meter(2);
  meter.enable_profile_recording();
  meter.set_power(0, seconds(0.0), watts(100.0), power::NodeState::kActive);
  meter.set_power(1, seconds(0.0), watts(80.0), power::NodeState::kIdle);
  meter.set_power(0, seconds(3.0), watts(50.0), power::NodeState::kIdle);
  meter.set_power(1, seconds(5.0), watts(120.0), power::NodeState::kActive);
  meter.finish(seconds(10.0));
  const EnergyProfile p = EnergyProfile::from_meter(meter);
  EXPECT_DOUBLE_EQ(p.end().value(), 10.0);
  EXPECT_DOUBLE_EQ(p.total().value(), meter.total_energy().value());
  // Node 0: 100 W for 3 s then 50 W; node 1: 80 W for 5 s then 120 W.
  // Cluster over [2, 6]: (100+80) for 1 s + (50+80) for 2 s + (50+120) for 1.
  EXPECT_DOUBLE_EQ(p.between(seconds(2.0), seconds(6.0)).value(),
                   180.0 + 260.0 + 170.0);
}

// --- checkpoint/restart arithmetic ------------------------------------------

TEST(RestartModel, BaselineAddsCheckpointOverhead) {
  const EnergyProfile p = EnergyProfile::flat(watts(100.0), seconds(10.0));
  const RestartStats base =
      checkpointed_baseline(seconds(10.0), p, 2, toy_ckpt());
  // Checkpoints at work 4 and 8 (never at the end): +2 s, +2*1s*2n*50W.
  EXPECT_DOUBLE_EQ(base.wall.value(), 12.0);
  EXPECT_DOUBLE_EQ(base.checkpoint_time.value(), 2.0);
  EXPECT_DOUBLE_EQ(base.checkpoint_energy.value(), 200.0);
  EXPECT_DOUBLE_EQ(base.energy.value(), 1200.0);
  EXPECT_EQ(base.retries, 0);
  EXPECT_TRUE(base.completed);
}

TEST(RestartModel, ComposeHandComputedCrash) {
  // Solid run: 10 s at 100 W cluster (2 nodes).  Crash at wall t=7:
  // checkpoint 4 was written over wall [4, 5); work position at the crash
  // is 6, durable progress 4.  Restart takes 2 s -> resume at 9 from work
  // 4; remaining 6 s work + 1 write (at 8) -> finish at 16.
  const EnergyProfile p = EnergyProfile::flat(watts(100.0), seconds(10.0));
  trace::FaultLog log;
  const RestartStats stats =
      compose_restarts(seconds(10.0), p, 2, toy_ckpt(),
                       {CrashEvent{1, seconds(7.0)}}, &log);
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.retries, 1);
  EXPECT_DOUBLE_EQ(stats.wall.value(), 16.0);
  EXPECT_DOUBLE_EQ(stats.rework_time.value(), 4.0);
  // Attempt 1: compute [0,6) = 600 J + one write 100 J = 700 J; restart
  // 2s*2n*25W = 100 J; attempt 2: compute [4,10) = 600 J + write 100 J.
  EXPECT_DOUBLE_EQ(stats.energy.value(), 1500.0);
  EXPECT_DOUBLE_EQ(stats.rework_energy.value(), 300.0);
  EXPECT_DOUBLE_EQ(stats.checkpoint_time.value(), 2.0);
  // The log shows checkpoint -> crash -> restart -> checkpoint.
  const auto count = [&log](trace::FaultEventKind kind) {
    return std::count_if(log.begin(), log.end(),
                         [kind](const trace::FaultEvent& e) {
                           return e.kind == kind;
                         });
  };
  EXPECT_EQ(count(trace::FaultEventKind::kNodeCrash), 1);
  EXPECT_EQ(count(trace::FaultEventKind::kRestart), 1);
  EXPECT_EQ(count(trace::FaultEventKind::kCheckpoint), 2);
}

TEST(RestartModel, CrashDuringWriteDiscardsThePartialCheckpoint) {
  // Crash at wall 4.5, mid-write of checkpoint 4: nothing durable, so the
  // restart goes back to work 0 and rewrites everything.
  const EnergyProfile p = EnergyProfile::flat(watts(100.0), seconds(10.0));
  const RestartStats stats = compose_restarts(
      seconds(10.0), p, 2, toy_ckpt(), {CrashEvent{0, seconds(4.5)}});
  EXPECT_TRUE(stats.completed);
  // Restart at 6.5 from work 0: 10 s work + both writes -> finish 18.5.
  EXPECT_DOUBLE_EQ(stats.wall.value(), 18.5);
  // Attempt 1: compute 400 J + half a write (0.5s*2n*50W = 50 J); restart
  // 100 J; attempt 2: full baseline 1200 J.
  EXPECT_DOUBLE_EQ(stats.energy.value(), 1750.0);
}

TEST(RestartModel, CrashAfterCompletionNeverHappens) {
  const EnergyProfile p = EnergyProfile::flat(watts(100.0), seconds(10.0));
  const RestartStats stats = compose_restarts(
      seconds(10.0), p, 2, toy_ckpt(), {CrashEvent{0, seconds(100.0)}});
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.retries, 0);
  EXPECT_DOUBLE_EQ(stats.wall.value(), 12.0);
  EXPECT_DOUBLE_EQ(stats.rework_time.value(), 0.0);
}

TEST(RestartModel, ExhaustedRestartBudgetFails) {
  const EnergyProfile p = EnergyProfile::flat(watts(100.0), seconds(10.0));
  CheckpointConfig cfg = toy_ckpt();
  cfg.max_restarts = 0;
  const RestartStats stats = compose_restarts(
      seconds(10.0), p, 2, cfg, {CrashEvent{1, seconds(7.0)}});
  EXPECT_FALSE(stats.completed);
  EXPECT_EQ(stats.retries, 1);
  EXPECT_DOUBLE_EQ(stats.failed_at.value(), 7.0);
  EXPECT_EQ(stats.failed_node, 1u);
  EXPECT_DOUBLE_EQ(stats.wall.value(), 7.0);
}

TEST(RestartModel, CrashesInsideARestartWindowAreAbsorbed) {
  const EnergyProfile p = EnergyProfile::flat(watts(100.0), seconds(10.0));
  // Second crash at 8.0 lands inside the [7, 9) restart window.
  const RestartStats stats = compose_restarts(
      seconds(10.0), p, 2, toy_ckpt(),
      {CrashEvent{0, seconds(7.0)}, CrashEvent{1, seconds(8.0)}});
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.retries, 1);
  EXPECT_DOUBLE_EQ(stats.wall.value(), 16.0);
}

TEST(RestartModel, ExpectedZeroRateEqualsBaseline) {
  const EnergyProfile p = EnergyProfile::flat(watts(140.0), seconds(33.0));
  const RestartStats base =
      checkpointed_baseline(seconds(33.0), p, 4, toy_ckpt());
  const RestartStats zero =
      expected_restarts(seconds(33.0), p, 4, toy_ckpt(), 0.0);
  EXPECT_EQ(zero.wall.value(), base.wall.value());
  EXPECT_EQ(zero.energy.value(), base.energy.value());
  EXPECT_EQ(zero.retries, 0);
}

TEST(RestartModel, ExpectedCostsGrowWithTheRate) {
  const EnergyProfile p = EnergyProfile::flat(watts(140.0), seconds(33.0));
  double prev_wall = 0.0;
  double prev_energy = 0.0;
  for (const double rate : {0.0, 1e-4, 1e-3, 1e-2}) {
    const RestartStats s =
        expected_restarts(seconds(33.0), p, 4, toy_ckpt(), rate);
    EXPECT_GT(s.wall.value(), prev_wall);
    EXPECT_GT(s.energy.value(), prev_energy);
    prev_wall = s.wall.value();
    prev_energy = s.energy.value();
  }
}

// --- injector + runner -------------------------------------------------------

TEST(FaultRun, CrashWithoutCheckpointingAbortsTheRun) {
  cluster::ExperimentRunner runner(test_cluster());
  const auto jacobi = small_jacobi();
  const cluster::RunResult solid = runner.run(jacobi, 2, 0);

  FaultPlan plan;
  const Seconds crash_at = seconds(solid.wall.value() * 0.5);
  plan.crash(1, crash_at);
  cluster::RunOptions options;
  options.faults = &plan;
  const cluster::RunResult r = runner.run(jacobi, 2, options);
  EXPECT_EQ(r.outcome, cluster::RunOutcome::kFailed);
  EXPECT_DOUBLE_EQ(r.wall.value(), crash_at.value());
  ASSERT_TRUE(r.fatal_crash.has_value());
  EXPECT_EQ(r.fatal_crash->node, 1u);
  // Partial accounting: some energy was burned, less than the full run.
  EXPECT_GT(r.energy.value(), 0.0);
  EXPECT_LT(r.energy.value(), solid.energy.value());
  ASSERT_EQ(r.fault_events.size(), 1u);
  EXPECT_EQ(r.fault_events[0].kind, trace::FaultEventKind::kNodeCrash);
}

TEST(FaultRun, CrashScheduledPastCompletionIsHarmless) {
  cluster::ExperimentRunner runner(test_cluster());
  const auto jacobi = small_jacobi();
  const cluster::RunResult solid = runner.run(jacobi, 2, 0);

  FaultPlan plan;
  plan.crash(0, seconds(solid.wall.value() * 10.0));
  cluster::RunOptions options;
  options.faults = &plan;
  const cluster::RunResult r = runner.run(jacobi, 2, options);
  EXPECT_EQ(r.outcome, cluster::RunOutcome::kCompleted);
  EXPECT_EQ(r.wall.value(), solid.wall.value());
  EXPECT_EQ(r.energy.value(), solid.energy.value());
}

TEST(FaultRun, CheckpointingAbsorbsTheCrash) {
  cluster::ExperimentRunner runner(test_cluster());
  const auto jacobi = small_jacobi();
  const cluster::RunResult solid = runner.run(jacobi, 2, 0);

  FaultPlan plan;
  plan.crash(0, seconds(solid.wall.value() * 0.6));
  CheckpointConfig cfg;
  cfg.interval = seconds(solid.wall.value() / 5.0);
  cfg.write_time = seconds(0.05);
  cfg.restart_time = seconds(0.5);
  plan.with_checkpointing(cfg);
  cluster::RunOptions options;
  options.faults = &plan;
  const cluster::RunResult r = runner.run(jacobi, 2, options);
  EXPECT_EQ(r.outcome, cluster::RunOutcome::kCompletedAfterRestart);
  EXPECT_EQ(r.retries, 1);
  EXPECT_GT(r.wall.value(), solid.wall.value());
  EXPECT_GT(r.energy.value(), solid.energy.value());
  EXPECT_GT(r.rework_time.value(), 0.0);
  EXPECT_GT(r.rework_energy.value(), 0.0);
  EXPECT_GT(r.checkpoint_time.value(), 0.0);
  const bool has_restart = std::any_of(
      r.fault_events.begin(), r.fault_events.end(),
      [](const trace::FaultEvent& e) {
        return e.kind == trace::FaultEventKind::kRestart;
      });
  EXPECT_TRUE(has_restart);
}

TEST(FaultRun, StragglerWindowLengthensTheRun) {
  cluster::ExperimentRunner runner(test_cluster());
  const auto jacobi = small_jacobi();
  const cluster::RunResult solid = runner.run(jacobi, 2, 0);

  FaultPlan plan;
  plan.straggle(0, seconds(0.0), seconds(1e9),
                runner.num_gears() - 1);
  cluster::RunOptions options;
  options.faults = &plan;
  const cluster::RunResult r = runner.run(jacobi, 2, options);
  EXPECT_EQ(r.outcome, cluster::RunOutcome::kCompleted);
  EXPECT_GT(r.wall.value(), solid.wall.value());
  // Both window edges are on the timeline.
  EXPECT_EQ(r.fault_events.size(), 2u);
}

TEST(FaultRun, MeterDropoutReportsCoverageAndInterpolates) {
  cluster::ClusterConfig config = test_cluster();
  config.sample_power = true;
  cluster::ExperimentRunner runner(config);
  const auto jacobi = small_jacobi();
  const cluster::RunResult solid = runner.run(jacobi, 2, 0);
  ASSERT_TRUE(solid.sampled_energy.has_value());
  EXPECT_EQ(solid.sampled_coverage, 1.0);

  FaultPlan plan;
  plan.drop_meter(0, seconds(solid.wall.value() * 0.2),
                  seconds(solid.wall.value() * 0.5));
  cluster::RunOptions options;
  options.faults = &plan;
  const cluster::RunResult r = runner.run(jacobi, 2, options);
  ASSERT_TRUE(r.sampled_energy.has_value());
  EXPECT_LT(r.sampled_coverage, 1.0);
  EXPECT_GT(r.sampled_coverage, 0.5);
  // The trapezoid bridge keeps the sampled integral close to the exact
  // one (piecewise-constant power; the holes are interpolated linearly).
  EXPECT_NEAR(r.sampled_energy->value(), r.energy.value(),
              0.05 * r.energy.value());
  // The exact books are untouched by a measurement fault.
  EXPECT_EQ(r.energy.value(), solid.energy.value());
}

TEST(FaultRun, DegradedLinkForcesRetransmissions) {
  cluster::ExperimentRunner runner(test_cluster());
  const auto jacobi = small_jacobi();
  const cluster::RunResult solid = runner.run(jacobi, 2, 0);
  EXPECT_EQ(solid.retransmissions, 0u);

  FaultPlan plan(99);
  net::LinkFaultWindow window;
  window.loss_probability = 0.5;
  window.retransmit_timeout = milliseconds(5.0);
  plan.degrade_link(window);
  cluster::RunOptions options;
  options.faults = &plan;
  const cluster::RunResult r = runner.run(jacobi, 2, options);
  EXPECT_GT(r.retransmissions, 0u);
  EXPECT_GT(r.wall.value(), solid.wall.value());
  EXPECT_FALSE(r.fault_events.empty());
}

// --- determinism contract ----------------------------------------------------

TEST(FaultDeterminism, SameSeededPlanIsBitIdentical) {
  cluster::ExperimentRunner runner(test_cluster());
  const auto jacobi = small_jacobi();

  const auto make_plan = [] {
    FaultPlan plan(2024);
    plan.random_crashes(0.02, 2, seconds(400.0));
    net::LinkFaultWindow window;
    window.loss_probability = 0.3;
    plan.degrade_link(window);
    plan.straggle(1, seconds(1.0), seconds(3.0), 3);
    CheckpointConfig cfg;
    cfg.interval = seconds(5.0);
    cfg.write_time = seconds(0.1);
    cfg.restart_time = seconds(1.0);
    plan.with_checkpointing(cfg);
    return plan;
  };
  const FaultPlan plan_a = make_plan();
  const FaultPlan plan_b = make_plan();
  cluster::RunOptions options_a;
  options_a.faults = &plan_a;
  cluster::RunOptions options_b;
  options_b.faults = &plan_b;
  const cluster::RunResult a = runner.run(jacobi, 2, options_a);
  const cluster::RunResult b = runner.run(jacobi, 2, options_b);
  expect_identical(a, b);
}

TEST(FaultDeterminism, EmptyPlanIsBitIdenticalToNoPlan) {
  cluster::ClusterConfig config = test_cluster();
  config.sample_power = true;  // Exercise the meter path too.
  cluster::ExperimentRunner runner(config);
  const auto jacobi = small_jacobi();

  const cluster::RunResult bare = runner.run(jacobi, 2, 0);
  const FaultPlan empty_plan;
  cluster::RunOptions options;
  options.faults = &empty_plan;
  const cluster::RunResult with_empty = runner.run(jacobi, 2, options);
  expect_identical(bare, with_empty);
  EXPECT_TRUE(with_empty.fault_events.empty());
}

// --- scheduler outages -------------------------------------------------------
//
// Outages on the scheduler's frozen arm, where every job's (nodes, gear)
// point is fixed at placement; sched_test.cpp covers the arbitrated arm.

sched::WorkloadProfile one_config_profile(const std::string& name,
                                          double time_s, double power_w) {
  std::vector<sched::ConfigPoint> points;
  points.push_back(sched::ConfigPoint{4, 0, 1, seconds(time_s),
                                      watts(power_w) * seconds(time_s)});
  return sched::WorkloadProfile(name, std::move(points));
}

/// A job that may span the whole 4-node test machine, arriving at t=0.
sched::BatchJob job(const std::string& id, const sched::WorkloadProfile& p) {
  sched::JobScript script;
  script.id = id;
  script.total_tasks = 4;
  return sched::BatchJob{script, &p};
}

sched::BatchScheduler frozen(
    sched::Machine machine,
    sched::QueueDiscipline discipline = sched::QueueDiscipline::kFifo) {
  return sched::BatchScheduler(machine, sched::BatchOptions{discipline, false});
}

TEST(SchedulerOutage, NoOutagesMatchesTheLegacyOverload) {
  using namespace gearsim::sched;
  // Omitting the outage list is the same schedule as an empty one.
  const WorkloadProfile p = one_config_profile("J", 25.0, 800.0);
  const BatchScheduler sched = frozen(Machine{4, watts(10000.0), watts(10.0)});
  const std::vector<BatchJob> queue = {job("a", p), job("b", p)};
  const BatchResult plain = sched.schedule(queue);
  const BatchResult with_empty = sched.schedule(queue, {});
  EXPECT_EQ(plain.makespan.value(), with_empty.makespan.value());
  EXPECT_EQ(plain.job_energy.value(), with_empty.job_energy.value());
  EXPECT_EQ(plain.idle_energy.value(), with_empty.idle_energy.value());
  EXPECT_EQ(plain.peak_power.value(), with_empty.peak_power.value());
  EXPECT_EQ(plain.placements.size(), with_empty.placements.size());
  EXPECT_EQ(with_empty.preemptions, 0);
  EXPECT_EQ(with_empty.wasted_energy.value(), 0.0);
}

TEST(SchedulerOutage, KilledJobIsRequeuedAfterRepair) {
  using namespace gearsim::sched;
  const WorkloadProfile p = one_config_profile("J", 25.0, 800.0);
  const BatchScheduler sched = frozen(Machine{4, watts(10000.0), watts(10.0)});
  // All four nodes die at t=10 and come back at t=15: the job loses its
  // first 10 s of work and reruns completely, ending at 15 + 25 = 40.
  const BatchResult r = sched.schedule(
      {job("a", p)}, {NodeOutage{seconds(10.0), 4, seconds(5.0)}});
  EXPECT_EQ(r.preemptions, 1);
  EXPECT_DOUBLE_EQ(r.makespan.value(), 40.0);
  EXPECT_DOUBLE_EQ(r.wasted_energy.value(), 800.0 * 10.0);
  ASSERT_EQ(r.placements.size(), 1u);  // Killed runs are not listed.
  EXPECT_DOUBLE_EQ(r.placements[0].start.value(), 15.0);
  EXPECT_DOUBLE_EQ(r.job_energy.value(), 800.0 * 25.0);
}

TEST(SchedulerOutage, UnrepairedOutageThatBlocksTheQueueThrows) {
  using namespace gearsim::sched;
  const WorkloadProfile p = one_config_profile("J", 25.0, 800.0);
  const BatchScheduler sched = frozen(Machine{4, watts(10000.0), watts(10.0)});
  // The whole machine dies forever mid-run: the job can never be re-run.
  EXPECT_THROW(
      (void)sched.schedule({job("a", p)}, {NodeOutage{seconds(10.0), 4}}),
      ContractError);
}

TEST(SchedulerOutage, PartialOutageKillsOnlyWhatMustDie) {
  using namespace gearsim::sched;
  // Two 2-node jobs; losing 2 of 4 nodes kills only the younger one.
  std::vector<ConfigPoint> points;
  points.push_back(ConfigPoint{2, 0, 1, seconds(30.0),
                               watts(400.0) * seconds(30.0)});
  const WorkloadProfile p("half", std::move(points));
  const BatchScheduler sched = frozen(Machine{4, watts(10000.0), watts(10.0)},
                                      QueueDiscipline::kGreedy);
  const BatchResult r =
      sched.schedule({job("old", p), job("young", p)},
                     {NodeOutage{seconds(10.0), 2, seconds(5.0)}});
  // Both start at 0; "young" (placed second) is killed at 10, resumes at
  // 15, ends at 45; "old" finishes undisturbed at 30.
  EXPECT_EQ(r.preemptions, 1);
  EXPECT_DOUBLE_EQ(r.makespan.value(), 45.0);
  EXPECT_DOUBLE_EQ(r.placement("old").start.value(), 0.0);
  EXPECT_DOUBLE_EQ(r.placement("young").start.value(), 15.0);
}

TEST(SchedulerOutage, TwoVictimOutageRequeuesInSubmissionOrder) {
  using namespace gearsim::sched;
  // Both 2-node jobs die when 3 of 4 nodes go down at t=10.  One node
  // stays down much longer, so after the first repair only one job fits
  // at a time and the requeue order is observable: "a" was submitted
  // first and must restart first.
  std::vector<ConfigPoint> points;
  points.push_back(
      ConfigPoint{2, 0, 1, seconds(30.0), watts(400.0) * seconds(30.0)});
  const WorkloadProfile p("half", std::move(points));
  const BatchScheduler sched = frozen(Machine{4, watts(10000.0), watts(10.0)});
  const BatchResult r = sched.schedule(
      {job("a", p), job("b", p)},
      {NodeOutage{seconds(10.0), 2, seconds(10.0)},
       NodeOutage{seconds(10.0), 1, seconds(100.0)}});
  EXPECT_EQ(r.preemptions, 2);
  EXPECT_DOUBLE_EQ(r.placement("a").start.value(), 20.0);
  EXPECT_DOUBLE_EQ(r.placement("b").start.value(), 50.0);
  EXPECT_DOUBLE_EQ(r.makespan.value(), 80.0);
}

TEST(SchedulerOutage, IdleWaitBeforeTheFirstPlacementIsInThePeak) {
  using namespace gearsim::sched;
  // 2 of 4 nodes are down from t=0, so the 4-node job waits for the
  // repair with the two survivors parked at 10 W each.  The job itself
  // draws only 5 W: the pre-start idle window must be sampled and
  // integrated, not skipped.  The peak is the whole machine parked once
  // the run is over.
  std::vector<ConfigPoint> points;
  points.push_back(
      ConfigPoint{4, 0, 1, seconds(25.0), watts(5.0) * seconds(25.0)});
  const WorkloadProfile p("dim", std::move(points));
  const BatchScheduler sched = frozen(Machine{4, watts(10000.0), watts(10.0)});
  const BatchResult r = sched.schedule(
      {job("a", p)}, {NodeOutage{seconds(0.0), 2, seconds(7.0)}});
  EXPECT_DOUBLE_EQ(r.placement("a").start.value(), 7.0);
  ASSERT_FALSE(r.power_timeline.empty());
  EXPECT_DOUBLE_EQ(r.power_timeline.front().at.value(), 0.0);
  EXPECT_DOUBLE_EQ(r.power_timeline.front().draw.value(), 20.0);  // 2 x 10 W.
  EXPECT_DOUBLE_EQ(r.peak_power.value(), 40.0);    // 4 parked x 10 W.
  EXPECT_DOUBLE_EQ(r.idle_energy.value(), 140.0);  // 20 W x 7 s.
  EXPECT_DOUBLE_EQ(r.makespan.value(), 32.0);
}

TEST(SchedulerOutage, RepairUnderARunningJobAddsParkedDrawToThePeak) {
  using namespace gearsim::sched;
  // While 3 of 4 nodes are down only the narrow 1-node shape fits; the
  // wide one is what the empty machine would pick.  The repair at t=10
  // returns three parked nodes under the running job.
  std::vector<ConfigPoint> points;
  points.push_back(
      ConfigPoint{4, 0, 1, seconds(25.0), watts(300.0) * seconds(25.0)});
  points.push_back(
      ConfigPoint{1, 0, 1, seconds(100.0), watts(200.0) * seconds(100.0)});
  const WorkloadProfile p("one", std::move(points));
  const std::vector<NodeOutage> outage = {
      NodeOutage{seconds(0.0), 3, seconds(10.0)}};

  // Roomy cap: the frozen job runs on.  [0, 10): 200 W job alone;
  // [10, 100): plus 3 x 50 W parked = 350 W.
  const BatchResult roomy =
      frozen(Machine{4, watts(10000.0), watts(50.0)})
          .schedule({job("a", p)}, outage);
  EXPECT_EQ(roomy.preemptions, 0);
  EXPECT_DOUBLE_EQ(roomy.peak_power.value(), 350.0);
  EXPECT_DOUBLE_EQ(roomy.idle_energy.value(), 3 * 50.0 * 90.0);

  // At a 340 W cap that draw would bust the cap, and a frozen gear
  // cannot absorb it: the job is evicted at the repair (its 10 s burn is
  // wasted) and re-placed at once on the machine it now has, wide.
  const BatchResult capped =
      frozen(Machine{4, watts(340.0), watts(50.0)})
          .schedule({job("a", p)}, outage);
  EXPECT_EQ(capped.preemptions, 1);
  EXPECT_DOUBLE_EQ(capped.wasted_energy.value(), 200.0 * 10.0);
  EXPECT_EQ(capped.placement("a").nodes, 4);
  EXPECT_DOUBLE_EQ(capped.placement("a").start.value(), 10.0);
  EXPECT_DOUBLE_EQ(capped.makespan.value(), 35.0);
  EXPECT_LE(capped.peak_power.value(), 340.0);
  // Each shape has one gear, so the arbitrated arm has no rung to
  // retreat to either: it evicts and re-places the same way.
  const BatchResult arbitrated =
      BatchScheduler(Machine{4, watts(340.0), watts(50.0)})
          .schedule({job("a", p)}, outage);
  EXPECT_EQ(arbitrated.preemptions, 1);
  EXPECT_DOUBLE_EQ(arbitrated.makespan.value(), 35.0);
}

TEST(SchedulerOutage, BruteForceDrawTimelineMatchesPeakAndIdleEnergy) {
  using namespace gearsim::sched;
  // Reconstruct the draw timeline from first principles — placements
  // plus the outage calendar — and check the scheduler's sampled peak
  // and idle integral against it, so no window can go unsampled.  A
  // frozen run draws constantly, at energy / (end - start).
  std::vector<ConfigPoint> wide_pts;
  wide_pts.push_back(
      ConfigPoint{4, 0, 1, seconds(25.0), watts(800.0) * seconds(25.0)});
  const WorkloadProfile wide("wide", std::move(wide_pts));
  std::vector<ConfigPoint> narrow_pts;
  narrow_pts.push_back(
      ConfigPoint{1, 0, 1, seconds(40.0), watts(100.0) * seconds(40.0)});
  const WorkloadProfile narrow("narrow", std::move(narrow_pts));
  const double idle = 10.0;
  const BatchScheduler sched = frozen(
      Machine{4, watts(10000.0), watts(idle)}, QueueDiscipline::kGreedy);
  const double out_at = 30.0;
  const double back_at = 50.0;
  const BatchResult r = sched.schedule(
      {job("a", wide), job("b", narrow)},
      {NodeOutage{seconds(out_at), 2, seconds(back_at - out_at)}});
  EXPECT_EQ(r.preemptions, 0);  // The outage only took parked nodes.

  std::vector<double> times = {0.0, out_at, back_at};
  for (const auto& pl : r.placements) {
    times.push_back(pl.start.value());
    times.push_back(pl.end.value());
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  double peak = 0.0;
  double idle_energy = 0.0;
  for (std::size_t i = 0; i + 1 < times.size(); ++i) {
    const double t = times[i];
    if (t >= r.makespan.value()) break;
    double busy_power = 0.0;
    int busy_nodes = 0;
    for (const auto& pl : r.placements) {
      if (pl.start.value() <= t && t < pl.end.value()) {
        busy_power += pl.energy.value() / (pl.end - pl.start).value();
        busy_nodes += pl.nodes;
      }
    }
    const int capacity = (t >= out_at && t < back_at) ? 2 : 4;
    const double draw = busy_power + (capacity - busy_nodes) * idle;
    peak = std::max(peak, draw);
    idle_energy += (capacity - busy_nodes) * idle * (times[i + 1] - t);
  }
  EXPECT_DOUBLE_EQ(r.peak_power.value(), peak);
  EXPECT_NEAR(r.idle_energy.value(), idle_energy, 1e-9);
}

}  // namespace
}  // namespace gearsim::faults
