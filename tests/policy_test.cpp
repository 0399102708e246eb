// Tests for the adaptive DVFS runtime (src/policy): wait prediction,
// iteration clocking, the online controllers (blocked-share feedback,
// timeout downshift, slack reclamation), the evaluation harness,
// and the cross-layer contracts the subsystem leans on — policy identity
// in cache keys, gear-residency accounting, and straggler-cap precedence
// over policy gear requests.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "cluster/dvfs.hpp"
#include "cluster/experiment.hpp"
#include "exec/cache_key.hpp"
#include "exec/result_io.hpp"
#include "exec/sweep_runner.hpp"
#include "faults/fault_plan.hpp"
#include "policy/controller.hpp"
#include "policy/evaluator.hpp"
#include "policy/slack_adaptive.hpp"
#include "policy/slack_reclaimer.hpp"
#include "policy/timeout_downshift.hpp"
#include "trace/iteration.hpp"
#include "workloads/registry.hpp"

namespace gearsim::policy {
namespace {

using mpi::CallType;

// --- WaitPredictor -------------------------------------------------------------

TEST(WaitPredictor, UnseenSignaturePredictsNegative) {
  WaitPredictor p(0.5);
  p.reset(2);
  EXPECT_LT(p.predict(0, CallType::kAllreduce, 8), 0.0);
  p.observe(0, CallType::kAllreduce, 8, seconds(0.25));
  EXPECT_DOUBLE_EQ(p.predict(0, CallType::kAllreduce, 8), 0.25);
  // Other ranks and other signatures stay unknown.
  EXPECT_LT(p.predict(1, CallType::kAllreduce, 8), 0.0);
  EXPECT_LT(p.predict(0, CallType::kAllreduce, 16), 0.0);
  EXPECT_LT(p.predict(0, CallType::kBarrier, 8), 0.0);
}

TEST(WaitPredictor, EwmaTracksObservations) {
  WaitPredictor p(0.5);
  p.reset(1);
  p.observe(0, CallType::kBarrier, 0, seconds(1.0));
  p.observe(0, CallType::kBarrier, 0, seconds(0.0));
  EXPECT_DOUBLE_EQ(p.predict(0, CallType::kBarrier, 0), 0.5);
  p.observe(0, CallType::kBarrier, 0, seconds(0.5));
  EXPECT_DOUBLE_EQ(p.predict(0, CallType::kBarrier, 0), 0.5);
}

TEST(WaitPredictor, ResetDropsHistory) {
  WaitPredictor p(1.0);
  p.reset(1);
  p.observe(0, CallType::kBarrier, 0, seconds(1.0));
  p.reset(1);
  EXPECT_LT(p.predict(0, CallType::kBarrier, 0), 0.0);
}

// --- IterationClock ------------------------------------------------------------

TEST(IterationClock, AnchorsOnFirstCollectiveAndClosesOnRecurrence) {
  trace::IterationClock clock;
  // Point-to-point traffic before the first collective is ignored.
  EXPECT_FALSE(clock.on_call(CallType::kRecv, 1024));
  EXPECT_FALSE(clock.anchored());
  // First collective anchors (starts iteration 0, closes nothing).
  EXPECT_FALSE(clock.on_call(CallType::kAllreduce, 8));
  EXPECT_TRUE(clock.anchored());
  // Different collectives and p2p inside the iteration do not close it.
  EXPECT_FALSE(clock.on_call(CallType::kBarrier, 0));
  EXPECT_FALSE(clock.on_call(CallType::kAllreduce, 16));  // Other bytes.
  EXPECT_FALSE(clock.on_call(CallType::kSendrecv, 4096));
  // The anchor signature recurring closes the iteration.
  EXPECT_TRUE(clock.on_call(CallType::kAllreduce, 8));
  EXPECT_EQ(clock.iterations(), 1u);
  EXPECT_TRUE(clock.on_call(CallType::kAllreduce, 8));
  EXPECT_EQ(clock.iterations(), 2u);
  clock.reset();
  EXPECT_FALSE(clock.anchored());
  EXPECT_EQ(clock.iterations(), 0u);
}

TEST(IterationClock, OfflineBoundariesFindAnchorRecurrences) {
  // Three iterations of {allreduce(8); sendrecv; barrier}, prefixed by a
  // recv the detector must skip over.
  std::vector<trace::TraceRecord> records;
  auto add = [&records](CallType type, double enter, Bytes bytes) {
    trace::TraceRecord r;
    r.type = type;
    r.enter = seconds(enter);
    r.exit = seconds(enter + 0.01);
    r.bytes = bytes;
    records.push_back(r);
  };
  add(CallType::kRecv, 0.0, 1024);
  for (int i = 0; i < 3; ++i) {
    add(CallType::kAllreduce, 1.0 + i, 8);
    add(CallType::kSendrecv, 1.3 + i, 4096);
    add(CallType::kBarrier, 1.6 + i, 0);
  }
  const std::vector<Seconds> bounds = trace::iteration_boundaries(records);
  ASSERT_EQ(bounds.size(), 2u);
  EXPECT_DOUBLE_EQ(bounds[0].value(), 2.0);
  EXPECT_DOUBLE_EQ(bounds[1].value(), 3.0);
}

// --- TimeoutDownshift ----------------------------------------------------------

TimeoutDownshift::Params timeout_params() {
  TimeoutDownshift::Params p;
  p.compute_gear = 0;
  p.park_gear = 5;
  p.timeout = microseconds(500.0);
  p.alpha = 1.0;  // Last observation wins: simplest to reason about.
  return p;
}

TEST(TimeoutDownshift, FirstSightingNeverParks) {
  TimeoutDownshift ctl(timeout_params(), 2);
  ctl.on_blocking_enter(0, CallType::kAllreduce, 8, seconds(0.0));
  EXPECT_EQ(ctl.comm_gear(0), 0u);
}

TEST(TimeoutDownshift, ParksOnceTheSignatureProvesSlow) {
  TimeoutDownshift ctl(timeout_params(), 1);
  ctl.on_blocking_enter(0, CallType::kAllreduce, 8, seconds(0.0));
  ctl.on_blocking_exit(0, CallType::kAllreduce, 8, seconds(0.01),
                       seconds(0.01));  // 10 ms >> 500 us.
  ctl.on_blocking_enter(0, CallType::kAllreduce, 8, seconds(1.0));
  EXPECT_EQ(ctl.comm_gear(0), 5u);
  // Compute gear is untouched: the park is comm-only.
  EXPECT_EQ(ctl.compute_gear(0), 0u);
}

TEST(TimeoutDownshift, ShortWaitsNeverPark) {
  TimeoutDownshift ctl(timeout_params(), 1);
  for (int i = 0; i < 5; ++i) {
    const auto t = seconds(0.1 * i);
    ctl.on_blocking_enter(0, CallType::kBarrier, 0, t);
    EXPECT_EQ(ctl.comm_gear(0), 0u) << i;
    ctl.on_blocking_exit(0, CallType::kBarrier, 0, t, microseconds(50.0));
  }
}

// --- SlackAdaptive -----------------------------------------------------------

TEST(SlackAdaptive, ValidatesParams) {
  SlackAdaptive::Params p;
  p.lo = 0.5;
  p.hi = 0.2;
  EXPECT_THROW(SlackAdaptive(p, 4), ContractError);
  p = SlackAdaptive::Params{};
  p.window = 0;
  EXPECT_THROW(SlackAdaptive(p, 4), ContractError);
  p = SlackAdaptive::Params{};
  p.initial_gear = 6;
  EXPECT_THROW(SlackAdaptive(p, 4), ContractError);
  EXPECT_THROW(SlackAdaptive(SlackAdaptive::Params{}, 0), ContractError);
  // Name and signature are its cache identity: they must not drift.
  const SlackAdaptive ok(SlackAdaptive::Params{}, 1);
  EXPECT_EQ(ok.name(), "slack-adaptive");
  EXPECT_EQ(ok.signature(),
            "slack-adaptive{initial=0,hi=0.25,lo=0.050000000000000003,"
            "window=16,slowest=5}");
}

TEST(SlackAdaptive, StepsDownUnderSustainedSlack) {
  SlackAdaptive::Params p;
  p.window = 4;
  SlackAdaptive ctl(p, 1);
  // 50% blocked share across each window: should step down once per
  // window until the slowest gear.
  double t = 0.0;
  for (int w = 0; w < 8; ++w) {
    for (int i = 0; i < 4; ++i) {
      ctl.on_blocking_enter(0, CallType::kAllreduce, 0, seconds(t));
      t += 0.5;
      ctl.on_blocking_exit(0, CallType::kAllreduce, 0, seconds(t),
                           seconds(0.5));
      t += 0.5;
    }
  }
  EXPECT_EQ(ctl.compute_gear(0), 5u);  // Hit the floor after >= 5 windows.
  EXPECT_EQ(ctl.comm_gear(0), 5u);     // Parks where it computes.
}

TEST(SlackAdaptive, StepsBackUpWhenSlackDisappears) {
  SlackAdaptive::Params p;
  p.window = 2;
  p.initial_gear = 3;
  SlackAdaptive ctl(p, 1);
  // Negligible blocking: controller should climb back to gear 1.
  double t = 0.0;
  for (int w = 0; w < 6; ++w) {
    for (int i = 0; i < 2; ++i) {
      ctl.on_blocking_enter(0, CallType::kAllreduce, 0, seconds(t));
      t += 0.001;
      ctl.on_blocking_exit(0, CallType::kAllreduce, 0, seconds(t),
                           seconds(0.001));
      t += 1.0;
    }
  }
  EXPECT_EQ(ctl.compute_gear(0), 0u);
}

TEST(SlackAdaptive, HoldsSteadyInTheDeadband) {
  SlackAdaptive::Params p;
  p.window = 2;
  p.initial_gear = 2;
  SlackAdaptive ctl(p, 1);
  // ~18% blocked share (the window closes at the last exit, so the
  // trailing compute stretch is excluded) sits between lo=5% and hi=25%.
  double t = 0.0;
  for (int w = 0; w < 6; ++w) {
    for (int i = 0; i < 2; ++i) {
      ctl.on_blocking_enter(0, CallType::kAllreduce, 0, seconds(t));
      t += 0.10;
      ctl.on_blocking_exit(0, CallType::kAllreduce, 0, seconds(t),
                           seconds(0.10));
      t += 0.90;
    }
  }
  EXPECT_EQ(ctl.compute_gear(0), 2u);
}

TEST(SlackAdaptive, EndToEndConvergesPerRank) {
  // Strong imbalance: slack ranks should settle at slower gears than the
  // bottleneck rank, saving energy with bounded slowdown.
  cluster::ClusterConfig config = cluster::athlon_cluster();
  config.load_imbalance = 0.25;
  cluster::ExperimentRunner runner(config);
  const auto lu = workloads::make_workload("LU");
  const cluster::RunResult base = runner.run(*lu, 8, 0);

  SlackAdaptive adaptive(SlackAdaptive::Params{}, 8);
  cluster::RunOptions options;
  options.policy = &adaptive;
  const cluster::RunResult tuned = runner.run(*lu, 8, options);

  EXPECT_LT(tuned.energy.value(), base.energy.value());
  EXPECT_LT(tuned.wall / base.wall, 1.10);
  const auto gears = adaptive.final_gears();
  // At least one rank found slack to exploit; not every rank did.
  EXPECT_GT(*std::max_element(gears.begin(), gears.end()), 0u);
}

TEST(SlackAdaptive, LeavesComputeBoundRunsAlone) {
  cluster::ExperimentRunner runner(cluster::athlon_cluster());
  const auto ep = workloads::make_workload("EP");
  SlackAdaptive adaptive(SlackAdaptive::Params{}, 8);
  cluster::RunOptions options;
  options.policy = &adaptive;
  const cluster::RunResult tuned = runner.run(*ep, 8, options);
  const cluster::RunResult base = runner.run(*ep, 8, 0);
  // EP blocks only in its three final allreduces: no window completes,
  // no shifts, identical time to within the driver's overhead.
  EXPECT_NEAR(tuned.wall / base.wall, 1.0, 0.005);
  for (std::size_t g : adaptive.final_gears()) EXPECT_EQ(g, 0u);
}

TEST(SlackAdaptive, SavesEnergyOnCommBoundCg) {
  cluster::ExperimentRunner runner(cluster::athlon_cluster());
  const auto cg = workloads::make_workload("CG");
  SlackAdaptive adaptive(SlackAdaptive::Params{}, 8);
  cluster::RunOptions options;
  options.policy = &adaptive;
  const cluster::RunResult tuned = runner.run(*cg, 8, options);
  const cluster::RunResult base = runner.run(*cg, 8, 0);
  EXPECT_LT(tuned.energy / base.energy, 0.95);
  EXPECT_LT(tuned.wall / base.wall, 1.05);
}

TEST(SlackAdaptive, PositiveFeedbackPathologyOnSymmetricSync) {
  // SP synchronizes every iteration; once every rank downshifts, the
  // blocked share stays high (everyone waits together), so the naive
  // controller never climbs back — a large slowdown.  This documents the
  // limitation the Adagio-style designs fix.
  cluster::ExperimentRunner runner(cluster::athlon_cluster());
  const auto sp = workloads::make_workload("SP");
  SlackAdaptive adaptive(SlackAdaptive::Params{}, 9);
  cluster::RunOptions options;
  options.policy = &adaptive;
  const cluster::RunResult tuned = runner.run(*sp, 9, options);
  const cluster::RunResult base = runner.run(*sp, 9, 0);
  EXPECT_GT(tuned.wall / base.wall, 1.2);
  const auto gears = adaptive.final_gears();
  int downshifted = 0;
  for (std::size_t g : gears) {
    if (g > 0) ++downshifted;
  }
  EXPECT_GT(downshifted, 4);  // Most ranks stuck at slower gears.
}

// --- SlackReclaimer ------------------------------------------------------------

SlackReclaimer::Params reclaimer_params() {
  SlackReclaimer::Params p;
  p.gear_slowdowns = {1.0, 1.05, 1.12, 1.21, 1.33, 1.75};
  p.hysteresis = 2;
  p.park_while_blocked = false;  // Keep the unit tests about the slack math.
  return p;
}

/// Feed one synthetic iteration through the controller's public hooks:
/// the anchor allreduce at `start`, whose wait is `blocked` seconds, with
/// the next anchor arriving `span` seconds after this one.
void feed_iteration(SlackReclaimer& ctl, int rank, double start, double span,
                    double blocked) {
  ctl.on_blocking_enter(rank, CallType::kAllreduce, 8, seconds(start));
  ctl.on_blocking_exit(rank, CallType::kAllreduce, 8,
                       seconds(start + blocked), seconds(blocked));
  (void)span;  // The *next* enter at start+span closes this iteration.
}

TEST(SlackReclaimer, WarmupHoldsGearZeroThenReclaimsSlack) {
  SlackReclaimer ctl(reclaimer_params(), 2);
  // Rank 0: 1 s iterations, 0.4 s blocked — plenty of slack.
  double t = 0.0;
  for (int iter = 0; iter < 5; ++iter, t += 1.0) {
    feed_iteration(ctl, 0, t, 1.0, 0.4);
    if (iter < 3) {
      // Warmup (2 iterations) + hysteresis (2 votes): still at gear 0.
      // (The first enter only anchors; iteration k closes at enter k+1.)
      EXPECT_EQ(ctl.compute_gear(0), 0u) << iter;
    }
  }
  // active0 = 0.6, slack budget = 0.9 * 0.4 = 0.36: gear 5 (1.75) wants
  // 0.45 extra — too much; gear 4 (1.33) wants 0.198 — fits.
  EXPECT_EQ(ctl.compute_gear(0), 4u);
}

TEST(SlackReclaimer, PinsTheSlacklessRank) {
  SlackReclaimer ctl(reclaimer_params(), 1);
  double t = 0.0;
  for (int iter = 0; iter < 8; ++iter, t += 1.0) {
    feed_iteration(ctl, 0, t, 1.0, 0.005);  // 0.5% blocked: critical path.
  }
  EXPECT_EQ(ctl.compute_gear(0), 0u);
}

TEST(SlackReclaimer, OverBudgetIterationBacksOffAndCapsDepth) {
  SlackReclaimer ctl(reclaimer_params(), 1);
  double t = 0.0;
  for (int iter = 0; iter < 5; ++iter, t += 1.0) {
    feed_iteration(ctl, 0, t, 1.0, 0.4);
  }
  ASSERT_EQ(ctl.compute_gear(0), 4u);
  // The reclaimed "slack" turns out to be another rank's wait: the next
  // anchor arrives 20% late, closing an iteration over the frozen
  // reference.  Back off immediately.
  t += 0.2;  // Enter at t+0.2 closes a 1.2 s iteration.
  feed_iteration(ctl, 0, t, 1.0, 0.1);
  t += 1.0;
  EXPECT_EQ(ctl.compute_gear(0), 3u);
  // And the surrendered gear is never re-taken, even though the frozen
  // slack measurement alone would still vote for gear 4.
  for (int iter = 0; iter < 6; ++iter, t += 1.0) {
    feed_iteration(ctl, 0, t, 1.0, 0.4);
    EXPECT_LE(ctl.compute_gear(0), 3u) << iter;
  }
}

TEST(SlackReclaimer, ValidatesParams) {
  SlackReclaimer::Params p = reclaimer_params();
  p.gear_slowdowns = {1.0, 0.9};  // Decreasing ladder.
  EXPECT_THROW(SlackReclaimer(p, 1), ContractError);
  p = reclaimer_params();
  p.gear_slowdowns.clear();
  EXPECT_THROW(SlackReclaimer(p, 1), ContractError);
  p = reclaimer_params();
  p.hysteresis = 0;
  EXPECT_THROW(SlackReclaimer(p, 1), ContractError);
}

// --- cache identity (policy signatures in sweep keys) --------------------------

cluster::PolicyFactory timeout_factory(TimeoutDownshift::Params params) {
  return cluster::PolicyFactory([params](int nprocs) {
    return std::make_unique<TimeoutDownshift>(params, nprocs);
  });
}

cluster::PolicyFactory reclaimer_factory(SlackReclaimer::Params params) {
  return cluster::PolicyFactory([params](int nprocs) {
    return std::make_unique<SlackReclaimer>(params, nprocs);
  });
}

TEST(PolicyCacheKey, TwoPoliciesAtSameNominalGearKeyDifferently) {
  const cluster::ClusterConfig config = cluster::athlon_cluster();
  const cluster::PolicyFactory comm(
      [](int) { return std::make_unique<cluster::CommDownshift>(0, 5); });
  TimeoutDownshift::Params tp;
  tp.park_gear = 5;
  const cluster::PolicyFactory timeout = timeout_factory(tp);
  // Both policies compute at gear 0 and the points share gear_index 0 —
  // only the policy signature separates them.
  const exec::CacheKey none =
      exec::sweep_point_key(config, "w", 4, 0, 0, nullptr);
  const exec::CacheKey a =
      exec::sweep_point_key(config, "w", 4, 0, 0, nullptr, comm.signature());
  const exec::CacheKey b = exec::sweep_point_key(config, "w", 4, 0, 0,
                                                 nullptr, timeout.signature());
  EXPECT_NE(none.text, a.text);
  EXPECT_NE(none.text, b.text);
  EXPECT_NE(a.text, b.text);
  EXPECT_NE(none.text.find("|policy=none|"), std::string::npos);
  EXPECT_NE(a.text.find("|policy=" + comm.signature() + "|"),
            std::string::npos);
}

TEST(PolicyCacheKey, FactorySignaturesEncodeParameters) {
  SlackReclaimer::Params a = reclaimer_params();
  SlackReclaimer::Params b = reclaimer_params();
  b.perf_budget = 0.10;
  EXPECT_NE(reclaimer_factory(a).signature(),
            reclaimer_factory(b).signature());
  TimeoutDownshift::Params tp;
  const cluster::PolicyFactory f = timeout_factory(tp);
  EXPECT_EQ(f.signature(), f.instantiate(4)->signature());
}

TEST(PolicyCacheKey, RosterSignaturesArePinned) {
  // The roster's signatures are cache-key text: a byte that moves here
  // retires every cached policy result.  CG on 4 athlon nodes, default
  // evaluator options.
  const cluster::ClusterConfig config = cluster::athlon_cluster();
  const auto cg = workloads::make_workload("CG");
  const std::vector<cluster::RunResult> statics =
      cluster::ExperimentRunner(config).gear_sweep(*cg, 4);
  const std::vector<RosterEntry> roster =
      policy_roster(config, statics, PolicyEvaluator::Options{});
  std::vector<std::string> signatures;
  for (const RosterEntry& entry : roster) {
    signatures.push_back(entry.factory.signature());
  }
  EXPECT_EQ(signatures,
            (std::vector<std::string>{
                "per-rank{gears=0,0,0,0}",
                "comm-downshift{compute=0,comm=5}",
                "timeout-downshift{compute=0,park=5,"
                "timeout=0.00050000000000000001,alpha=0.5}",
                "slack-reclaimer{ladder=1,1.0165894622967806,"
                "1.0373262901677569,1.0639879260018692,1.0995367737806845,"
                "1.2239577410065396;budget=0.050000000000000003,"
                "hysteresis=2,safety=0.90000000000000002,pin=0.02,park=1,"
                "park_timeout=0.00050000000000000001,alpha=0.5}"}));
}

// --- sim-domain metrics --------------------------------------------------------

TEST(PolicyMetrics, SimDomainIsPinned) {
  // The sim domain of two sweeps' registries, byte for byte: the engine's,
  // the network's, the cluster's, the fault layer's and the adaptive
  // policies' counters.  The first sweep runs Jacobi on 4 nodes through
  // the policy roster (timeout-downshift and slack-reclaimer count their
  // decisions); the second runs CG's static gears on a routed torus with
  // a lossy link and one crash with no checkpoint policy, which aborts
  // the slower gears' runs.
  const cluster::ClusterConfig config = cluster::athlon_cluster();
  const auto jacobi = workloads::make_workload("Jacobi");
  const std::vector<RosterEntry> roster = policy_roster(
      config, cluster::ExperimentRunner(config).gear_sweep(*jacobi, 4),
      PolicyEvaluator::Options{});
  std::vector<exec::SweepPoint> policy_points;
  for (const RosterEntry& entry : roster) {
    policy_points.push_back(
        exec::SweepPoint{jacobi.get(), 4, 0, 0, &entry.factory});
  }
  obs::MetricsRegistry policy_metrics;
  exec::SweepOptions policy_options;
  policy_options.jobs = 1;
  policy_options.metrics = &policy_metrics;
  EXPECT_EQ(exec::SweepRunner(config, policy_options).run(policy_points).size(),
            roster.size());
  EXPECT_EQ(policy_metrics.snapshot().to_json(obs::Domain::kSim),
            "{\"cluster.gear_switches\":{\"kind\":\"counter\",\"count\":7573},"
            "\"cluster.mpi_calls\":{\"kind\":\"counter\",\"count\":6720},"
            "\"cluster.runs\":{\"kind\":\"counter\",\"count\":4},"
            "\"exec.cache.evictions\":{\"kind\":\"counter\",\"count\":0},"
            "\"exec.supervisor.failures\":{\"kind\":\"counter\",\"count\":0},"
            "\"exec.supervisor.jobs\":{\"kind\":\"counter\",\"count\":4},"
            "\"exec.supervisor.retries\":{\"kind\":\"counter\",\"count\":0},"
            "\"exec.sweep.points\":{\"kind\":\"counter\",\"count\":4},"
            "\"net.bytes\":{\"kind\":\"counter\",\"count\":314576640},"
            "\"net.messages\":{\"kind\":\"counter\",\"count\":5280},"
            "\"net.retransmissions\":{\"kind\":\"counter\",\"count\":0},"
            "\"policy.downshifts\":{\"kind\":\"counter\",\"count\":4},"
            "\"policy.hysteresis_votes\":{\"kind\":\"counter\",\"count\":8},"
            "\"policy.over_budget_backoffs\":{\"kind\":\"counter\",\"count\":0},"
            "\"policy.predictive_parks\":{\"kind\":\"counter\",\"count\":2506},"
            "\"policy.upshifts\":{\"kind\":\"counter\",\"count\":0},"
            "\"sim.engine.events_dispatched\":{\"kind\":\"counter\",\"count\":31749},"
            "\"sim.engine.pool.fallback_allocs\":{\"kind\":\"counter\",\"count\":0},"
            "\"sim.engine.pool.inline_events\":{\"kind\":\"counter\",\"count\":31749},"
            "\"sim.engine.processes_spawned\":{\"kind\":\"counter\",\"count\":16},"
            "\"sim.engine.queue_high_water\":{\"kind\":\"gauge_max\",\"value\":5}}");

  cluster::ClusterConfig routed = config;
  routed.network.topology = net::parse_topology("torus:2x2");
  const auto cg = workloads::make_workload("CG");
  faults::FaultPlan plan(11);
  net::LinkFaultWindow lossy;
  lossy.src = 1;
  lossy.loss_probability = 0.3;
  plan.degrade_link(lossy);
  plan.crash(2, seconds(34.5));
  obs::MetricsRegistry fault_metrics;
  exec::SweepOptions fault_options;
  fault_options.jobs = 1;
  fault_options.faults = &plan;
  fault_options.metrics = &fault_metrics;
  const std::vector<cluster::RunResult> runs =
      exec::SweepRunner(routed, fault_options).gear_sweep(*cg, 4);
  // The crash at 34.5 s falls between gear 4's and gear 5's solid walls
  // (32.1 s at gear 1 to 38.9 s at gear 6): gears 1-4 finish, 5 and 6
  // are aborted.
  ASSERT_EQ(runs.size(), 6u);
  for (std::size_t g = 0; g < runs.size(); ++g) {
    EXPECT_EQ(runs[g].outcome, g < 4 ? cluster::RunOutcome::kCompleted
                                     : cluster::RunOutcome::kFailed)
        << g;
    EXPECT_GT(runs[g].retransmissions, 0u) << g;
  }
  EXPECT_EQ(fault_metrics.snapshot().to_json(obs::Domain::kSim),
            "{\"cluster.gear_switches\":{\"kind\":\"counter\",\"count\":0},"
            "\"cluster.mpi_calls\":{\"kind\":\"counter\",\"count\":1752},"
            "\"cluster.runs\":{\"kind\":\"counter\",\"count\":6},"
            "\"exec.cache.evictions\":{\"kind\":\"counter\",\"count\":0},"
            "\"exec.supervisor.failures\":{\"kind\":\"counter\",\"count\":0},"
            "\"exec.supervisor.jobs\":{\"kind\":\"counter\",\"count\":6},"
            "\"exec.supervisor.retries\":{\"kind\":\"counter\",\"count\":0},"
            "\"exec.sweep.points\":{\"kind\":\"counter\",\"count\":6},"
            "\"faults.crashes\":{\"kind\":\"counter\",\"count\":2},"
            "\"faults.link_drop_bursts\":{\"kind\":\"counter\",\"count\":235},"
            "\"net.bytes\":{\"kind\":\"counter\",\"count\":430585536},"
            "\"net.messages\":{\"kind\":\"counter\",\"count\":3504},"
            "\"net.retransmissions\":{\"kind\":\"counter\",\"count\":334},"
            "\"sim.engine.events_dispatched\":{\"kind\":\"counter\",\"count\":14585},"
            "\"sim.engine.pool.fallback_allocs\":{\"kind\":\"counter\",\"count\":0},"
            "\"sim.engine.pool.inline_events\":{\"kind\":\"counter\",\"count\":14593},"
            "\"sim.engine.processes_spawned\":{\"kind\":\"counter\",\"count\":24},"
            "\"sim.engine.queue_high_water\":{\"kind\":\"gauge_max\",\"value\":7}}");
}

// --- straggler cap precedence --------------------------------------------------

/// Whole-run straggler caps on every node: no node may run faster than
/// `min_gear` for the first `horizon` seconds.
faults::FaultPlan cap_all_nodes(int nodes, std::size_t min_gear) {
  faults::FaultPlan plan;
  for (int n = 0; n < nodes; ++n) {
    plan.straggle(static_cast<std::size_t>(n), Seconds{}, seconds(1e9),
                  min_gear);
  }
  return plan;
}

TEST(StragglerPrecedence, CapOverridesFasterPolicyRequest) {
  // effective gear = max(policy request, straggler cap): the slower one
  // wins.  A policy asking for gear 0 under a gear-3 cap computes like a
  // uniform gear-3 run.
  cluster::ExperimentRunner runner(cluster::athlon_cluster());
  const auto ep = workloads::make_workload("EP");
  cluster::UniformGear fast(0);
  const faults::FaultPlan cap = cap_all_nodes(4, 3);
  cluster::RunOptions options;
  options.policy = &fast;
  options.faults = &cap;
  const cluster::RunResult capped = runner.run(*ep, 4, options);
  const cluster::RunResult gear3 = runner.run(*ep, 4, 3);
  EXPECT_NEAR(capped.wall.value(), gear3.wall.value(),
              1e-9 * gear3.wall.value());
  // The throttle is silent: residency reports the *requested* gear.
  ASSERT_EQ(capped.gear_residency.size(), 4u);
  EXPECT_GT(capped.gear_residency[0][0].value(), 0.0);
  EXPECT_DOUBLE_EQ(capped.gear_residency[0][3].value(), 0.0);
}

TEST(StragglerPrecedence, SlowerPolicyRequestWinsOverCap) {
  // The cap is a floor on slowness, not a setpoint: a policy already
  // slower than the cap keeps its own gear.
  cluster::ExperimentRunner runner(cluster::athlon_cluster());
  const auto ep = workloads::make_workload("EP");
  cluster::UniformGear slow(5);
  const faults::FaultPlan cap = cap_all_nodes(4, 3);
  cluster::RunOptions options;
  options.policy = &slow;
  options.faults = &cap;
  const cluster::RunResult capped = runner.run(*ep, 4, options);
  const cluster::RunResult gear5 = runner.run(*ep, 4, 5);
  EXPECT_NEAR(capped.wall.value(), gear5.wall.value(),
              1e-9 * gear5.wall.value());
}

// --- gear residency ------------------------------------------------------------

TEST(GearResidency, UniformRunSpendsAllTimeInItsGear) {
  cluster::ExperimentRunner runner(cluster::athlon_cluster());
  const auto cg = workloads::make_workload("CG");
  const cluster::RunResult r = runner.run(*cg, 4, 2);
  ASSERT_EQ(r.gear_residency.size(), 4u);
  for (const auto& rank : r.gear_residency) {
    ASSERT_EQ(rank.size(), 6u);
    for (std::size_t g = 0; g < rank.size(); ++g) {
      if (g == 2) {
        EXPECT_GT(rank[g].value(), 0.0);
        EXPECT_LE(rank[g].value(), r.wall.value() * (1.0 + 1e-12));
      } else {
        EXPECT_DOUBLE_EQ(rank[g].value(), 0.0);
      }
    }
  }
}

TEST(GearResidency, PolicyRunSplitsTimeAcrossGearsAndSumsToRankWall) {
  cluster::ExperimentRunner runner(cluster::athlon_cluster());
  const auto cg = workloads::make_workload("CG");
  cluster::CommDownshift policy(0, 5);
  cluster::RunOptions options;
  options.policy = &policy;
  const cluster::RunResult r = runner.run(*cg, 4, options);
  ASSERT_EQ(r.gear_residency.size(), 4u);
  for (const auto& rank : r.gear_residency) {
    EXPECT_GT(rank[0].value(), 0.0);  // Compute gear.
    EXPECT_GT(rank[5].value(), 0.0);  // Parked gear.
    double sum = 0.0;
    for (const Seconds& s : rank) sum += s.value();
    // Residency covers [0, rank finish], which is at most the run wall.
    EXPECT_LE(sum, r.wall.value() * (1.0 + 1e-12));
    EXPECT_GT(sum, 0.9 * r.wall.value());
  }
}

TEST(GearResidency, RoundTripsThroughResultIo) {
  cluster::ExperimentRunner runner(cluster::athlon_cluster());
  const auto cg = workloads::make_workload("CG");
  cluster::CommDownshift policy(0, 5);
  cluster::RunOptions options;
  options.policy = &policy;
  const cluster::RunResult r = runner.run(*cg, 4, options);
  const cluster::RunResult back = exec::result_from_json(exec::to_json(r));
  ASSERT_EQ(back.gear_residency.size(), r.gear_residency.size());
  for (std::size_t n = 0; n < r.gear_residency.size(); ++n) {
    ASSERT_EQ(back.gear_residency[n].size(), r.gear_residency[n].size());
    for (std::size_t g = 0; g < r.gear_residency[n].size(); ++g) {
      EXPECT_DOUBLE_EQ(back.gear_residency[n][g].value(),
                       r.gear_residency[n][g].value())
          << n << "/" << g;
    }
  }
  // And the round-trip is a fixpoint (bit-identical re-serialization).
  EXPECT_EQ(exec::to_json(back), exec::to_json(r));
}

// --- zero-duration calls -------------------------------------------------------

/// Iterative kernel whose barriers complete instantly on one rank: the
/// worst case for a policy that pays two gear transitions per call.
class TinyCallLoop final : public cluster::Workload {
 public:
  [[nodiscard]] std::string name() const override { return "tiny-calls"; }
  [[nodiscard]] std::string signature() const override {
    return "tiny-calls{}";
  }
  void run(cluster::RankContext& ctx) const override {
    for (int i = 0; i < 50; ++i) {
      ctx.compute_upm(100.0, 1e5);
      ctx.comm().barrier();
    }
  }
};

TEST(ZeroDurationCalls, NaiveCommDownshiftIsNeverCheaperThanNoPolicy) {
  // On one rank every barrier is zero-duration, so CommDownshift's park
  // buys nothing and pays two transitions (time at the parked gear's
  // idle power) per call.  It must not come out cheaper than leaving the
  // gear alone — the churn TimeoutDownshift exists to avoid.
  cluster::ExperimentRunner runner(cluster::athlon_cluster());
  const TinyCallLoop loop;
  cluster::CommDownshift naive(0, 5);
  cluster::RunOptions options;
  options.policy = &naive;
  const cluster::RunResult shifted = runner.run(loop, 1, options);
  const cluster::RunResult base = runner.run(loop, 1, 0);
  EXPECT_EQ(shifted.gear_switches, 100u);
  EXPECT_GT(shifted.wall.value(), base.wall.value());
  EXPECT_GE(shifted.energy.value(), base.energy.value());

  // TimeoutDownshift on the same loop never parks (the measured waits
  // are zero) and so matches the no-policy run's switch count.
  TimeoutDownshift timeout(timeout_params(), 1);
  options.policy = &timeout;
  const cluster::RunResult gated = runner.run(loop, 1, options);
  EXPECT_EQ(gated.gear_switches, 0u);
  EXPECT_LE(gated.wall.value(), shifted.wall.value());
}

// --- the evaluation harness ----------------------------------------------------

TEST(PolicyEvaluator, SmokeAcrossTwoWorkloads) {
  // The CI smoke cell: two workloads x 4 nodes through the full roster.
  const PolicyEvaluator evaluator(cluster::athlon_cluster());
  for (const char* name : {"CG", "MG"}) {
    const auto workload = workloads::make_workload(name);
    const Evaluation eval = evaluator.evaluate(*workload, 4);
    EXPECT_EQ(eval.workload, name);
    EXPECT_EQ(eval.nodes, 4);
    ASSERT_EQ(eval.static_runs.size(), 6u);
    ASSERT_EQ(eval.gear_slowdowns.size(), 6u);
    EXPECT_DOUBLE_EQ(eval.gear_slowdowns.front(), 1.0);
    for (std::size_t g = 1; g < eval.gear_slowdowns.size(); ++g) {
      EXPECT_GE(eval.gear_slowdowns[g], eval.gear_slowdowns[g - 1]);
    }
    ASSERT_EQ(eval.policies.size(), 4u);
    for (const PolicyRow& row : eval.policies) {
      EXPECT_FALSE(row.signature.empty());
      EXPECT_GT(row.result.wall.value(), 0.0);
      EXPECT_GT(row.result.energy.value(), 0.0);
    }
    const std::string table = policy_table(eval);
    EXPECT_NE(table.find("slack-reclaimer"), std::string::npos);
    EXPECT_NE(table.find("timeout-downshift"), std::string::npos);
    const std::string svg =
        (std::filesystem::path(testing::TempDir()) / "policy.svg").string();
    policy_figure("policies", eval).write(svg);
    EXPECT_GT(std::filesystem::file_size(svg), 0u);
  }
}

TEST(PolicyEvaluator, PolicyPointsAreCachedAndBitIdenticalAcrossJobs) {
  const cluster::ClusterConfig config = cluster::athlon_cluster();
  const auto cg = workloads::make_workload("CG");
  TimeoutDownshift::Params tp;
  tp.park_gear = 5;
  const cluster::PolicyFactory factory = timeout_factory(tp);
  const std::vector<exec::SweepPoint> points{
      exec::SweepPoint{cg.get(), 4, 0, 0, &factory},
      exec::SweepPoint{cg.get(), 8, 0, 0, &factory}};

  exec::ResultCache cache;
  exec::SweepOptions serial_options;
  serial_options.jobs = 1;
  serial_options.cache = &cache;
  const exec::SweepRunner serial(config, serial_options);
  const auto first = serial.run(points);
  const auto warm = serial.run(points);
  EXPECT_EQ(cache.stats().hits, 2u);

  exec::SweepOptions parallel_options;
  parallel_options.jobs = 2;
  const exec::SweepRunner parallel(config, parallel_options);
  const auto reran = parallel.run(points);
  ASSERT_EQ(first.size(), 2u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(exec::to_json(first[i]), exec::to_json(warm[i])) << i;
    EXPECT_EQ(exec::to_json(first[i]), exec::to_json(reran[i])) << i;
  }
}

TEST(PolicyEvaluator, ComposesWithFaultPlans) {
  // An adaptive controller and a straggler window in the same run: the
  // run completes and stays deterministic.
  cluster::ClusterConfig config = cluster::athlon_cluster();
  cluster::ExperimentRunner runner(config);
  const auto cg = workloads::make_workload("CG");
  faults::FaultPlan plan;
  plan.straggle(1, seconds(1.0), seconds(5.0), 4);
  TimeoutDownshift a(timeout_params(), 4);
  TimeoutDownshift b(timeout_params(), 4);
  cluster::RunOptions options;
  options.faults = &plan;
  options.policy = &a;
  const cluster::RunResult first = runner.run(*cg, 4, options);
  options.policy = &b;
  const cluster::RunResult second = runner.run(*cg, 4, options);
  EXPECT_EQ(exec::to_json(first), exec::to_json(second));
  EXPECT_GT(first.wall.value(), 0.0);
}

// --- crash matrix ------------------------------------------------------------
//
// A crash or a deadlock ends the run by unwinding every rank still inside
// a blocking call.  Under a comm-shifting policy the DVFS exit hook used
// to switch gears in that unwind, so delay() threw from a destructor and
// std::terminate() took the whole process down.  Every cell must return
// a RunResult or throw one of the library's structured errors.

/// One gear policy of the matrix, built fresh for every run.
struct MatrixPolicy {
  std::string name;
  std::function<std::unique_ptr<cluster::GearPolicy>(int nprocs)> make;
};

MatrixPolicy comm_downshift() {
  return {"comm-downshift",
          [](int) { return std::make_unique<cluster::CommDownshift>(0, 5); }};
}

std::vector<MatrixPolicy> matrix_policies() {
  SlackReclaimer::Params reclaim;
  reclaim.gear_slowdowns = {1.0, 1.05, 1.12, 1.21, 1.33, 1.75};
  return {
      {"uniform",
       [](int) { return std::make_unique<cluster::UniformGear>(2); }},
      comm_downshift(),
      {"timeout-downshift",
       [](int n) {
         return std::make_unique<TimeoutDownshift>(TimeoutDownshift::Params{},
                                                   n);
       }},
      {"slack-reclaimer",
       [reclaim](int n) {
         return std::make_unique<SlackReclaimer>(reclaim, n);
       }},
      {"slack-adaptive",
       [](int n) {
         return std::make_unique<SlackAdaptive>(SlackAdaptive::Params{}, n);
       }},
  };
}

/// How a cell ended.  Anything else escaping run() fails the test; an
/// abort fails it by killing the process.
enum class CellEnd { kResult, kContractError, kSimulationError };

CellEnd run_cell(const cluster::Workload& workload, int nodes,
                 const MatrixPolicy& policy, const faults::FaultPlan& plan,
                 cluster::RunResult* result = nullptr) {
  const cluster::ExperimentRunner runner(cluster::athlon_cluster());
  const auto instance = policy.make(nodes);
  cluster::RunOptions options;
  options.policy = instance.get();
  options.faults = &plan;
  try {
    cluster::RunResult r = runner.run(workload, nodes, options);
    if (result != nullptr) *result = std::move(r);
    return CellEnd::kResult;
  } catch (const ContractError&) {
    return CellEnd::kContractError;
  } catch (const SimulationError&) {  // NodeFailure included.
    return CellEnd::kSimulationError;
  }
}

TEST(CrashMatrix, CommDownshiftCrashOnCgFailsTheRun) {
  // The reported case: CG on 4 nodes, CommDownshift(0, 5), node 0 dies,
  // no checkpointing.  At 10 ms no rank is inside a gear-shifted call;
  // at 1.2822 s ranks wait in a CG exchange at the comm gear, and the
  // crash used to abort the process there.  Either way the run must
  // fail as a result.
  for (const double at : {0.01, 1.2822}) {
    SCOPED_TRACE(at);
    faults::FaultPlan plan;
    plan.crash(0, seconds(at));
    cluster::RunResult r;
    ASSERT_EQ(run_cell(*workloads::make_workload("CG"), 4,
                       comm_downshift(), plan, &r),
              CellEnd::kResult);
    EXPECT_EQ(r.outcome, cluster::RunOutcome::kFailed);
    ASSERT_TRUE(r.fatal_crash.has_value());
    EXPECT_EQ(r.fatal_crash->node, 0u);
    EXPECT_EQ(r.wall.value(), at);
  }
}

TEST(CrashMatrix, EveryWorkloadPolicyInstantAndCheckpointing) {
  constexpr int kNodes = 4;
  const cluster::ExperimentRunner runner(cluster::athlon_cluster());
  const auto policies = matrix_policies();
  for (const auto& entry : workloads::all_workloads()) {
    const auto workload = entry.make();
    ASSERT_TRUE(workload->supports(kNodes)) << entry.name;
    const double solid = runner.run(*workload, kNodes, 0).wall.value();
    const double fractions[] = {0.05, 0.5, 0.95};
    for (std::size_t c = 0; c < std::size(fractions); ++c) {
      for (const bool checkpointing : {false, true}) {
        faults::FaultPlan plan;
        plan.crash(c, seconds(solid * fractions[c]));
        if (checkpointing) {
          faults::CheckpointConfig ckpt;
          ckpt.interval = seconds(solid / 4.0);
          ckpt.write_time = seconds(solid / 100.0);
          ckpt.restart_time = seconds(solid / 20.0);
          plan.with_checkpointing(ckpt);
        }
        for (const MatrixPolicy& policy : policies) {
          SCOPED_TRACE(entry.name + " " + policy.name + " crash@" +
                       std::to_string(fractions[c]) +
                       (checkpointing ? " checkpointing" : ""));
          cluster::RunResult r;
          ASSERT_EQ(run_cell(*workload, kNodes, policy, plan, &r),
                    CellEnd::kResult);
          // Every policy runs no faster than gear 0, so an early crash
          // always lands inside the run.
          if (fractions[c] <= 0.5) {
            EXPECT_EQ(r.outcome,
                      checkpointing
                          ? cluster::RunOutcome::kCompletedAfterRestart
                          : cluster::RunOutcome::kFailed);
          }
        }
      }
    }
  }
}

/// Ranks pair up and each waits for its partner first: a deadlock.
class PairwiseRecv final : public cluster::Workload {
 public:
  [[nodiscard]] std::string name() const override { return "pairwise-recv"; }
  void run(cluster::RankContext& ctx) const override {
    ctx.compute_upm(100.0, 1e5);
    ctx.comm().recv(ctx.rank() ^ 1, 0);
  }
};

/// Rank 0 throws from inside a blocking call (a receive from a rank that
/// does not exist) while the others wait in a barrier.
class ThrowsInsideRecv final : public cluster::Workload {
 public:
  [[nodiscard]] std::string name() const override {
    return "throws-inside-recv";
  }
  void run(cluster::RankContext& ctx) const override {
    ctx.compute_upm(100.0, 1e5);
    if (ctx.rank() == 0) ctx.comm().recv(ctx.nprocs(), 0);
    ctx.comm().barrier();
  }
};

TEST(CrashMatrix, DeadlockUnderCommDownshiftThrows) {
  EXPECT_EQ(run_cell(PairwiseRecv(), 4, comm_downshift(),
                     faults::FaultPlan{}),
            CellEnd::kSimulationError);
}

TEST(CrashMatrix, RankThrowingInsideACallUnderCommDownshiftThrows) {
  EXPECT_EQ(run_cell(ThrowsInsideRecv(), 4, comm_downshift(),
                     faults::FaultPlan{}),
            CellEnd::kContractError);
}

}  // namespace
}  // namespace gearsim::policy
