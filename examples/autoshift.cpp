// autoshift — the paper's future work, runnable today: automatic DVFS.
//
//   $ autoshift [workload] [nodes]        (default: CG 8)
//
// Compares four ways of running the same program:
//   1. uniform fastest gear (the "performance-at-all-costs" baseline),
//   2. comm-downshift: an MPI runtime that parks a blocked rank at the
//      slowest gear and pays the DVFS transition both ways,
//   3. a node-bottleneck plan: per-rank static gears harvested from a
//      profile run's load imbalance,
//   4. slack-adaptive: an online controller that steps each rank's gear
//      by its share of time blocked in MPI.
#include <iostream>
#include <string>

#include "cluster/dvfs.hpp"
#include "model/gear_data.hpp"
#include "policy/slack_adaptive.hpp"
#include "util/table.hpp"
#include "workloads/registry.hpp"

int main(int argc, char** argv) {
  using namespace gearsim;

  const std::string name = argc > 1 ? argv[1] : "CG";
  const int nodes = argc > 2 ? std::stoi(argv[2]) : 8;
  const auto workload = workloads::make_workload(name);
  if (!workload->supports(nodes)) {
    std::cerr << name << " does not run on " << nodes << " nodes\n";
    return 1;
  }

  cluster::ExperimentRunner runner(cluster::athlon_cluster());
  const std::size_t slowest = runner.num_gears() - 1;

  // Profile at the fastest gear; plan per-rank gears from its imbalance.
  const cluster::RunResult profile = runner.run(*workload, nodes, 0);
  const model::GearData gear_data = model::measure_gear_data(runner, *workload);
  std::vector<double> ladder;
  for (const auto& g : gear_data.gears) ladder.push_back(g.slowdown);
  const cluster::PerRankGear plan =
      cluster::plan_node_bottleneck(profile, ladder, /*safety=*/0.9);

  cluster::UniformGear baseline(0);
  cluster::CommDownshift downshift(0, slowest);
  policy::SlackAdaptive adaptive(policy::SlackAdaptive::Params{}, nodes);
  cluster::PerRankGear planned = plan;  // mutable copy: policies may carry state

  std::cout << "Automatic DVFS for " << name << " on " << nodes
            << " nodes (switch latency "
            << fmt_fixed(runner.config().gear_switch_latency.value() * 1e6, 0)
            << " us)\n\n";

  TextTable table({"policy", "time [s]", "energy [kJ]", "vs baseline time",
                   "vs baseline energy", "switches"});
  for (cluster::GearPolicy* policy :
       {static_cast<cluster::GearPolicy*>(&baseline),
        static_cast<cluster::GearPolicy*>(&downshift),
        static_cast<cluster::GearPolicy*>(&planned),
        static_cast<cluster::GearPolicy*>(&adaptive)}) {
    cluster::RunOptions options;
    options.policy = policy;
    const cluster::RunResult r = runner.run(*workload, nodes, options);
    table.add_row({policy->name(), fmt_fixed(r.wall.value(), 1),
                   fmt_fixed(r.energy.value() / 1e3, 1),
                   fmt_percent(r.wall / profile.wall - 1.0),
                   fmt_percent(r.energy / profile.energy - 1.0),
                   std::to_string(r.gear_switches)});
  }
  std::cout << table.to_string() << '\n';

  std::cout << "Planned per-rank gears:";
  for (int r = 0; r < nodes; ++r) {
    std::cout << " r" << r << "=g" << plan.compute_gear(r) + 1;
  }
  std::cout << "\n(ranks with slack in the profile run get slower gears;"
               " the critical rank stays at gear 1)\n";
  return 0;
}
