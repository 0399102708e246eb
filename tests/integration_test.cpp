// Integration tests: the paper's headline claims, asserted end-to-end
// against the full simulated measurement pipeline (these are the numbers
// EXPERIMENTS.md reports).
#include <gtest/gtest.h>

#include "cluster/experiment.hpp"
#include "model/tradeoff.hpp"
#include "workloads/jacobi.hpp"
#include "workloads/nas.hpp"
#include "workloads/registry.hpp"
#include "workloads/synthetic.hpp"

namespace gearsim {
namespace {

class PaperClaims : public ::testing::Test {
 protected:
  cluster::ExperimentRunner runner{cluster::athlon_cluster()};

  model::Curve sweep(const std::string& name, int nodes) {
    const auto w = workloads::make_workload(name);
    return model::curve_from_runs(runner.gear_sweep(*w, nodes));
  }
};

// Section 3.1 / Figure 1 ---------------------------------------------------------

TEST_F(PaperClaims, CgSavesTenPercentEnergyForOnePercentTime) {
  // "on one node, it is possible to use 10% less energy while increasing
  // time by 1%, with CG" (gear 2: -9.5% energy, <1% delay).
  const auto rel = model::relative_to_fastest(sweep("CG", 1));
  EXPECT_NEAR(rel[1].energy_delta, -0.095, 0.02);
  EXPECT_LT(rel[1].time_delta, 0.025);
}

TEST_F(PaperClaims, CgGearFiveSavesTwentyPercent) {
  const auto rel = model::relative_to_fastest(sweep("CG", 1));
  EXPECT_NEAR(rel[4].energy_delta, -0.20, 0.03);
  EXPECT_NEAR(rel[4].time_delta, 0.10, 0.03);
}

TEST_F(PaperClaims, EpHasEssentiallyNoSavings) {
  // "with EP there was essentially no savings": gear 2 ~ -2% energy for
  // ~+11% time (the delay tracks the cycle-time increase).
  const auto rel = model::relative_to_fastest(sweep("EP", 1));
  EXPECT_NEAR(rel[1].energy_delta, -0.02, 0.02);
  EXPECT_NEAR(rel[1].time_delta, 2000.0 / 1800.0 - 1.0, 0.015);
}

TEST_F(PaperClaims, FastestGearTakesTheLeastTimeForEveryBenchmark) {
  // "All of our tests show that for a given program, using the fastest
  // gear takes the least time."
  for (const auto& e : workloads::nas_suite()) {
    const model::Curve c = sweep(e.name, 1);
    for (std::size_t g = 1; g < c.points.size(); ++g) {
      EXPECT_GE(c.points[g].time.value(), c.points[0].time.value())
          << e.name << " gear " << g + 1;
    }
  }
}

TEST_F(PaperClaims, UpmOrdersTheSlopes) {
  // Table 1: memory pressure predicts the tradeoff, modulo one outlier
  // (MG in the paper; LU's MLP anomaly here).
  std::vector<model::TradeoffSummary> rows;
  for (const auto& e : workloads::nas_suite()) {
    const model::Curve c = sweep(e.name, 1);
    const auto w = e.make();
    const auto* nas = dynamic_cast<const workloads::NasSkeleton*>(w.get());
    rows.push_back({e.name, nas->params().upm,
                    model::slope_between(c.points[0], c.points[1]),
                    model::slope_between(c.points[1], c.points[2])});
  }
  EXPECT_GE(model::upm_slope_concordance(rows), 0.85);
  // CG (lowest UPM) has the steepest slope; EP (highest) the shallowest.
  EXPECT_LT(rows.back().slope_1_2, rows.front().slope_1_2);
}

// Section 3.2 / Figure 2 ------------------------------------------------------------

TEST_F(PaperClaims, EpDoublingIsCaseTwo) {
  EXPECT_EQ(model::classify_transition(sweep("EP", 2), sweep("EP", 4)),
            model::SpeedupCase::kPerfectOrSuper);
}

TEST_F(PaperClaims, MgFirstDoublingIsCaseOne) {
  EXPECT_EQ(model::classify_transition(sweep("MG", 2), sweep("MG", 4)),
            model::SpeedupCase::kPoorSpeedup);
}

TEST_F(PaperClaims, BtAndSpAreCaseOne) {
  EXPECT_EQ(model::classify_transition(sweep("BT", 4), sweep("BT", 9)),
            model::SpeedupCase::kPoorSpeedup);
  EXPECT_EQ(model::classify_transition(sweep("SP", 4), sweep("SP", 9)),
            model::SpeedupCase::kPoorSpeedup);
}

TEST_F(PaperClaims, CgFourToEightIsCaseOne) {
  EXPECT_EQ(model::classify_transition(sweep("CG", 4), sweep("CG", 8)),
            model::SpeedupCase::kPoorSpeedup);
}

TEST_F(PaperClaims, LuFourToEightIsCaseThreeWithQuotedNumbers) {
  const model::Curve c4 = sweep("LU", 4);
  const model::Curve c8 = sweep("LU", 8);
  EXPECT_EQ(model::classify_transition(c4, c8),
            model::SpeedupCase::kGoodSpeedup);
  // "The fastest gear on 8 nodes executes 72% faster than on 4 nodes,
  // but uses 12% more energy."
  EXPECT_NEAR(c4.fastest().time / c8.fastest().time, 1.72, 0.08);
  EXPECT_NEAR(c8.fastest().energy / c4.fastest().energy, 1.12, 0.04);
  // "Gear 4 on 8 nodes uses approximately the same energy as the fastest
  // gear on 4 nodes, but executes 50% more quickly."
  const auto& g4on8 = c8.at_gear(4);
  EXPECT_NEAR(g4on8.energy / c4.fastest().energy, 1.0, 0.04);
  EXPECT_NEAR(c4.fastest().time / g4on8.time, 1.5, 0.15);
}

// Figure 3 ---------------------------------------------------------------------------

TEST_F(PaperClaims, JacobiAdjacentCurvesAreAllCaseThree) {
  std::vector<model::Curve> curves;
  const workloads::Jacobi jacobi;
  for (int n : {2, 4, 6, 8, 10}) {
    curves.push_back(model::curve_from_runs(runner.gear_sweep(jacobi, n)));
  }
  for (std::size_t i = 1; i < curves.size(); ++i) {
    EXPECT_EQ(model::classify_transition(curves[i - 1], curves[i]),
              model::SpeedupCase::kGoodSpeedup)
        << curves[i - 1].nodes << "->" << curves[i].nodes;
  }
  // "executing in second or third gear on 6 nodes results in the program
  // finishing faster and using less energy than using first gear on 4".
  const auto& g1on4 = curves[1].at_gear(1);
  const auto& g2on6 = curves[2].at_gear(2);
  EXPECT_LE(g2on6.time.value(), g1on4.time.value());
  EXPECT_LE(g2on6.energy.value(), g1on4.energy.value());
}

// Figure 4 ---------------------------------------------------------------------------

TEST_F(PaperClaims, SyntheticGearFiveIsCheapAndBarelySlower) {
  const workloads::Synthetic synth;
  const auto rel = model::relative_to_fastest(
      model::curve_from_runs(runner.gear_sweep(synth, 1)));
  EXPECT_NEAR(rel[4].time_delta, 0.03, 0.015);    // ~3% penalty.
  EXPECT_NEAR(rel[4].energy_delta, -0.24, 0.025); // ~24% savings.
}

TEST_F(PaperClaims, SyntheticEightNodeGearFiveDominatesFourNodeGearOne) {
  const workloads::Synthetic synth;
  const model::Curve c4 =
      model::curve_from_runs(runner.gear_sweep(synth, 4));
  const model::Curve c8 =
      model::curve_from_runs(runner.gear_sweep(synth, 8));
  const auto& g1on4 = c4.at_gear(1);
  const auto& g5on8 = c8.at_gear(5);
  // "gear 5 on 8 nodes uses 80% of the energy and executes in half the
  // time" of gear 1 on 4 nodes.
  EXPECT_NEAR(g5on8.energy / g1on4.energy, 0.80, 0.05);
  EXPECT_NEAR(g5on8.time / g1on4.time, 0.5, 0.08);
}

// Cross-cutting invariants -------------------------------------------------------------

TEST_F(PaperClaims, SlowdownBoundAcrossTheSuiteAndNodeCounts) {
  // 1 <= T_{i+1}/T_i <= f_i/f_{i+1} on multi-node runs too.
  const auto& gears = runner.config().gears;
  for (const auto& e : workloads::nas_suite()) {
    const auto w = e.make();
    const int nodes = w->supports(8) ? 8 : 9;
    const model::Curve c = sweep(e.name, nodes);
    for (std::size_t g = 1; g < c.points.size(); ++g) {
      const double ratio = c.points[g].time / c.points[g - 1].time;
      // Multi-node runs tolerate ~1% inversions from contention timing
      // realignment; the upper bound has no slack.
      EXPECT_GE(ratio, 1.0 - 0.015) << e.name;
      EXPECT_LE(ratio, gears.gear(g - 1).frequency / gears.gear(g).frequency +
                           1e-9)
          << e.name;
    }
  }
}

TEST_F(PaperClaims, CurvesBecomeMoreVerticalWithMoreNodes) {
  // Figure 5's qualitative claim, measured on actual runs: with more
  // nodes the communication-heavy codes spend a larger share of the run
  // off the CPU's critical path, so a slow gear's *time* penalty shrinks
  // — the curve steepens toward vertical.
  for (const char* name : {"CG", "SP"}) {
    const auto w = workloads::make_workload(name);
    const int small_n = w->supports(2) ? 2 : 4;
    const int large_n = w->supports(8) ? 8 : 9;
    const auto rel_small = model::relative_to_fastest(sweep(name, small_n));
    const auto rel_large = model::relative_to_fastest(sweep(name, large_n));
    EXPECT_LT(rel_large[4].time_delta, rel_small[4].time_delta) << name;
    EXPECT_LT(rel_large[4].energy_delta, 0.0) << name;
  }
}

TEST_F(PaperClaims, PowerCapScenario) {
  // The paper's motivation: under a heat limit, a power-scalable cluster
  // picks the fastest point under the cap.  With a cap below the fastest
  // gear's draw, some slower gear must be chosen.
  const model::Curve c = sweep("CG", 4);
  const Watts full_draw = c.fastest().energy / c.fastest().time;
  const auto pick = model::best_under_power_cap(c, full_draw * 0.9);
  ASSERT_TRUE(pick.has_value());
  EXPECT_GT(pick->gear_label, 1);
}

}  // namespace
}  // namespace gearsim
