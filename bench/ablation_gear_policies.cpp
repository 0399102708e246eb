// Ablation — DVFS gear policies (the paper's future work, §5).
//
// Compares, for each NAS benchmark on 8 (or 9) nodes:
//   * uniform gears (the paper's measured scope): the fastest gear and
//     the per-benchmark minimum-energy uniform gear;
//   * comm-downshift: compute at gear 1, park at the slowest gear while
//     blocked in MPI (future work #3: an MPI runtime that "automatically
//     reduces the energy gear");
//   * node-bottleneck planning (future work #2): per-rank static gears
//     derived from a profile run's load imbalance.
// Reports time, energy, energy-delay product, and DVFS transition counts.
#include <iostream>

#include "cluster/dvfs.hpp"
#include "harness.hpp"
#include "model/gear_data.hpp"
#include "model/tradeoff.hpp"
#include "policy/slack_adaptive.hpp"
#include "util/table.hpp"
#include "workloads/registry.hpp"

using namespace gearsim;

namespace {

int run(bench::BenchContext& ctx) {
  cluster::ExperimentRunner runner(cluster::athlon_cluster());
  const std::size_t slowest = runner.num_gears() - 1;

  std::cout << "=== Ablation: DVFS gear policies (8/9 nodes) ===\n\n";

  TextTable table({"bench", "policy", "time [s]", "energy [kJ]",
                   "EDP [kJ*s]", "vs gear-1 time", "vs gear-1 energy",
                   "switches"});

  for (const auto& entry : workloads::nas_suite()) {
    const auto workload = entry.make();
    const int nodes = workload->supports(8) ? 8 : 9;

    // Baselines: uniform fastest and uniform min-energy gear.
    const auto sweep = runner.gear_sweep(*workload, nodes);
    const model::Curve curve = model::curve_from_runs(sweep);
    const std::size_t best_uniform = model::min_energy_index(curve);

    // Per-gear slowdown ladder for the bottleneck planner.
    const model::GearData gear_data =
        model::measure_gear_data(runner, *workload);
    std::vector<double> slowdowns;
    for (const auto& g : gear_data.gears) slowdowns.push_back(g.slowdown);

    cluster::UniformGear fastest(0);
    cluster::UniformGear economical(best_uniform);
    cluster::CommDownshift downshift(0, slowest);
    cluster::PerRankGear planned = cluster::plan_node_bottleneck(
        runner.run(*workload, nodes, 0), slowdowns, /*safety=*/0.9);
    policy::SlackAdaptive adaptive(policy::SlackAdaptive::Params{}, nodes);

    const cluster::RunResult base = sweep.front();
    const std::vector<cluster::GearPolicy*> policies = {
        &fastest, &economical, &downshift, &planned, &adaptive};
    const char* keys[] = {"fastest", "economical", "downshift", "planned",
                          "adaptive"};
    for (std::size_t i = 0; i < policies.size(); ++i) {
      cluster::GearPolicy* policy = policies[i];
      cluster::RunOptions options;
      options.policy = policy;
      const cluster::RunResult r = runner.run(*workload, nodes, options);
      table.add_row(
          {entry.name, policy->name(), fmt_fixed(r.wall.value(), 1),
           fmt_fixed(r.energy.value() / 1e3, 1),
           fmt_fixed(r.energy.value() / 1e3 * r.wall.value() / 1e3, 1),
           fmt_percent(r.wall / base.wall - 1.0),
           fmt_percent(r.energy / base.energy - 1.0),
           std::to_string(r.gear_switches)});
      ctx.metric(entry.name + std::string(".") + keys[i] + ".energy_delta",
                 r.energy / base.energy - 1.0);
      ctx.metric(entry.name + std::string(".") + keys[i] + ".time_delta",
                 r.wall / base.wall - 1.0);
    }
    table.add_rule();
  }

  std::cout << table.to_string() << '\n'
            << "Note the slack-adaptive pathology on the ADI codes (SP/BT):"
               " their blocking is *symmetric* synchronization, so when\n"
               "every rank slows down the blocked share stays high and the"
               " controller never recovers — absolute blocked-share\n"
               "feedback cannot distinguish \"I have slack\" from"
               " \"everyone is waiting together\" (the insight behind the"
               " later Adagio work).\n"
            << "Notes: comm-downshift pays two "
            << fmt_fixed(
                   runner.config().gear_switch_latency.value() * 1e6, 0)
            << " us DVFS transitions per blocking MPI call, so it only\n"
               "wins when blocked intervals are long (CG); the bottleneck"
               " plan exploits static load imbalance and is free of\n"
               "transition overhead but limited by how little imbalance"
               " these benchmarks have.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::bench_main(argc, argv, "ablation_gear_policies", run);
}
