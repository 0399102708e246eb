// batch_scheduler — running a job queue through a power-capped rack.
//
//   $ batch_scheduler [cap_watts]          (default: 900)
//
// Profiles a mix of NAS jobs on the simulated cluster, then schedules the
// queue four ways (min-time FIFO, min-energy FIFO, min-time greedy
// backfill, min-EDP greedy backfill) under the cap with every job's
// (nodes, gear) frozen at placement, comparing makespan, energy, and
// peak draw — the operational payoff of a power-scalable cluster.
#include <iostream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "sched/scheduler.hpp"
#include "util/table.hpp"
#include "workloads/registry.hpp"

int main(int argc, char** argv) {
  using namespace gearsim;

  const double cap = argc > 1 ? std::stod(argv[1]) : 900.0;
  cluster::ExperimentRunner runner(cluster::athlon_cluster());

  std::cout << "Profiling workloads on the simulated Athlon-64 cluster...\n";
  const auto cg = workloads::make_workload("CG");
  const auto lu = workloads::make_workload("LU");
  const auto ep = workloads::make_workload("EP");
  const auto mg = workloads::make_workload("MG");
  const sched::WorkloadProfile cg_p =
      sched::WorkloadProfile::measure(runner, *cg, 8);
  const sched::WorkloadProfile lu_p =
      sched::WorkloadProfile::measure(runner, *lu, 8);
  const sched::WorkloadProfile ep_p =
      sched::WorkloadProfile::measure(runner, *ep, 8);
  const sched::WorkloadProfile mg_p =
      sched::WorkloadProfile::measure(runner, *mg, 8);

  const std::pair<const char*, const sched::WorkloadProfile*> queue[] = {
      {"cg-1", &cg_p}, {"lu-1", &lu_p}, {"ep-1", &ep_p},
      {"mg-1", &mg_p}, {"cg-2", &cg_p}, {"ep-2", &ep_p},
  };
  const sched::Machine rack{10, watts(cap), watts(85.0)};
  // Every job may span the rack, arrives at once, and carries the
  // variant's objective as its energy policy tag.
  const auto jobs_tagged = [&](sched::EnergyPolicyTag tag) {
    std::vector<sched::BatchJob> jobs;
    for (const auto& [id, profile] : queue) {
      sched::JobScript script;
      script.id = id;
      script.total_tasks = rack.nodes;
      script.tag = tag;
      jobs.push_back(sched::BatchJob{script, profile});
    }
    return jobs;
  };

  std::cout << "Scheduling " << std::size(queue)
            << " jobs on a 10-node rack capped at " << fmt_fixed(cap, 0)
            << " W\n\n";

  TextTable summary({"policy", "makespan [s]", "job energy [kJ]",
                     "total energy [kJ]", "peak draw [W]"});
  struct Variant {
    const char* name;
    sched::EnergyPolicyTag tag;
    sched::QueueDiscipline discipline;
  };
  const Variant variants[] = {
      {"min-time, FIFO", sched::EnergyPolicyTag::kMinimizeTimeToSolution,
       sched::QueueDiscipline::kFifo},
      {"min-energy, FIFO", sched::EnergyPolicyTag::kMinimizeEnergyToSolution,
       sched::QueueDiscipline::kFifo},
      {"min-time, greedy", sched::EnergyPolicyTag::kMinimizeTimeToSolution,
       sched::QueueDiscipline::kGreedy},
      {"min-EDP, greedy", sched::EnergyPolicyTag::kMinimizeEdp,
       sched::QueueDiscipline::kGreedy},
  };

  sched::BatchResult best{};
  std::string best_name;
  for (const auto& v : variants) {
    const sched::BatchScheduler scheduler(
        rack, sched::BatchOptions{v.discipline, /*arbitrate=*/false});
    const sched::BatchResult r = scheduler.schedule(jobs_tagged(v.tag));
    summary.add_row({v.name, fmt_fixed(r.makespan.value(), 1),
                     fmt_fixed(r.job_energy.value() / 1e3, 1),
                     fmt_fixed(r.total_energy().value() / 1e3, 1),
                     fmt_fixed(r.peak_power.value(), 0)});
    if (best_name.empty() || r.makespan < best.makespan) {
      best = r;
      best_name = v.name;
    }
  }
  std::cout << summary.to_string() << '\n';

  std::cout << "Gantt (" << best_name << ", in completion order):\n";
  TextTable gantt({"job", "nodes", "gear", "start [s]", "end [s]"});
  for (const auto& p : best.placements) {
    gantt.add_row({p.job_id, std::to_string(p.nodes),
                   std::to_string(p.final_gear_label),
                   fmt_fixed(p.start.value(), 1),
                   fmt_fixed(p.end.value(), 1)});
  }
  std::cout << gantt.to_string();
  return 0;
}
