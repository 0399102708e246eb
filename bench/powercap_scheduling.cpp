// Power-cap scheduling sweep (extension of the paper's §3.2 discussion).
//
// "If there is a limit for energy/power consumption or heat dissipation,
// this would be represented as a horizontal line.  For programs in this
// case, the line will intersect at most one of the curves.  The most
// desirable point would be the leftmost (fastest) one under the limit."
//
// This harness sweeps the rack's power cap and schedules the same NAS job
// queue at each level, on two machines: a power-scalable rack (all six
// gears available) and a conventional fixed-gear rack (gear 1 only).  The
// gap between them is the paper's argument, quantified: under tight caps
// the conventional rack must leave nodes parked, while the power-scalable
// one runs wide at low gears.
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "exec/result_cache.hpp"
#include "exec/sweep_runner.hpp"
#include "harness.hpp"
#include "sched/scheduler.hpp"
#include "util/table.hpp"
#include "workloads/registry.hpp"

using namespace gearsim;

namespace {

sched::WorkloadProfile restrict_to_gear_one(const sched::WorkloadProfile& p) {
  std::vector<sched::ConfigPoint> points;
  for (const auto& pt : p.points()) {
    if (pt.gear_label == 1) points.push_back(pt);
  }
  return sched::WorkloadProfile(p.workload_name() + "@g1", std::move(points));
}

int run(bench::BenchContext& ctx) {
  // Profiles are measured through the sweep executor: GEARSIM_SWEEP_JOBS
  // parallelizes the configuration grid and GEARSIM_CACHE_DIR (e.g.
  // out/cache) lets repeated bench runs skip every already-simulated
  // point — both bit-identical to the serial ExperimentRunner path.
  exec::ResultCache::Options cache_options;
  if (const char* dir = std::getenv("GEARSIM_CACHE_DIR")) {
    cache_options.disk_dir = dir;
  }
  exec::ResultCache cache(cache_options);
  exec::SweepOptions sweep_options;
  sweep_options.cache = &cache;
  const exec::SweepRunner runner(cluster::athlon_cluster(), sweep_options);

  const auto cg = workloads::make_workload("CG");
  const auto lu = workloads::make_workload("LU");
  const auto ep = workloads::make_workload("EP");
  const sched::WorkloadProfile cg_p =
      sched::WorkloadProfile::measure(runner, *cg, 8);
  const sched::WorkloadProfile lu_p =
      sched::WorkloadProfile::measure(runner, *lu, 8);
  const sched::WorkloadProfile ep_p =
      sched::WorkloadProfile::measure(runner, *ep, 8);
  const auto cache_stats = runner.cache_stats();
  ctx.info("profile_cache",
           std::to_string(cache_stats.hits + cache_stats.disk_hits) +
               " hits / " + std::to_string(cache_stats.misses) + " misses");
  const sched::WorkloadProfile cg_g1 = restrict_to_gear_one(cg_p);
  const sched::WorkloadProfile lu_g1 = restrict_to_gear_one(lu_p);
  const sched::WorkloadProfile ep_g1 = restrict_to_gear_one(ep_p);

  // Every job may span the whole rack, arrives at t=0 and has no wall
  // limit; its tag is the objective the frozen arm places it by.
  using Queue =
      std::vector<std::pair<const char*, const sched::WorkloadProfile*>>;
  const Queue scalable = {{"cg", &cg_p}, {"lu", &lu_p}, {"ep", &ep_p}};
  const Queue fixed_gear = {{"cg", &cg_g1}, {"lu", &lu_g1}, {"ep", &ep_g1}};
  const int rack_nodes = 10;
  const auto jobs_tagged = [rack_nodes](const Queue& queue,
                                        sched::EnergyPolicyTag tag) {
    std::vector<sched::BatchJob> jobs;
    for (const auto& [id, profile] : queue) {
      sched::JobScript script;
      script.id = id;
      script.total_tasks = rack_nodes;
      script.tag = tag;
      jobs.push_back(sched::BatchJob{script, profile});
    }
    return jobs;
  };

  std::cout << "=== Power-cap sweep: power-scalable vs fixed-gear rack ===\n"
            << "(10 nodes, min-time greedy scheduling, 3-job NAS queue; the rack\n idles at ~850 W, so caps below ~1000 W cannot even park it)\n\n";

  // The scalable rack's configuration space strictly contains the fixed
  // rack's, so an *optimal* scheduler can never do worse.  A myopic
  // greedy policy can, though: per-job min-time grabs power headroom that
  // would have let other jobs coexist.  We therefore schedule the
  // scalable rack under each objective and report the best — and flag
  // the caps where plain min-time loses to the fixed rack (the myopia).
  TextTable table({"cap [W]", "scalable best [s]", "best objective",
                   "min-time only [s]", "fixed (g1) [s]",
                   "scalable energy [kJ]", "fixed energy [kJ]"});
  bool best_never_worse = true;
  bool saw_min_time_myopia = false;
  for (double cap : {1500.0, 1400.0, 1300.0, 1200.0, 1100.0, 1000.0}) {
    const sched::BatchScheduler scheduler(
        sched::Machine{rack_nodes, watts(cap), watts(85.0)},
        sched::BatchOptions{sched::QueueDiscipline::kGreedy,
                            /*arbitrate=*/false});
    const auto fixed = scheduler.schedule(jobs_tagged(
        fixed_gear, sched::EnergyPolicyTag::kMinimizeTimeToSolution));
    sched::BatchResult best{};
    sched::BatchResult min_time_only{};
    std::string best_name;
    const std::pair<const char*, sched::EnergyPolicyTag> objectives[] = {
        {"min-time", sched::EnergyPolicyTag::kMinimizeTimeToSolution},
        {"min-EDP", sched::EnergyPolicyTag::kMinimizeEdp},
        {"min-energy", sched::EnergyPolicyTag::kMinimizeEnergyToSolution}};
    for (const auto& [name, tag] : objectives) {
      const auto r = scheduler.schedule(jobs_tagged(scalable, tag));
      if (tag == sched::EnergyPolicyTag::kMinimizeTimeToSolution) {
        min_time_only = r;
      }
      if (best_name.empty() || r.makespan < best.makespan) {
        best = r;
        best_name = name;
      }
    }
    // The operator of a scalable rack can always fall back to gear-1-only
    // scheduling, so the fixed schedule is one of its candidates too.
    if (fixed.makespan < best.makespan) {
      best = fixed;
      best_name = "gear-1 fallback";
    }
    if (best.makespan.value() > fixed.makespan.value() + 1e-9) {
      best_never_worse = false;
    }
    if (min_time_only.makespan.value() > fixed.makespan.value() + 1e-9) {
      saw_min_time_myopia = true;
    }
    table.add_row({fmt_fixed(cap, 0), fmt_fixed(best.makespan.value(), 1),
                   best_name, fmt_fixed(min_time_only.makespan.value(), 1),
                   fmt_fixed(fixed.makespan.value(), 1),
                   fmt_fixed(best.total_energy().value() / 1e3, 1),
                   fmt_fixed(fixed.total_energy().value() / 1e3, 1)});
    const std::string prefix = "cap" + fmt_fixed(cap, 0);
    ctx.metric(prefix + ".scalable_makespan_s", best.makespan.value());
    ctx.metric(prefix + ".fixed_makespan_s", fixed.makespan.value());
  }
  std::cout << table.to_string() << '\n'
            << "Best-objective scalable scheduling is never slower than the"
               " fixed-gear rack: "
            << (best_never_worse ? "verified" : "VIOLATED") << ".\n";
  if (saw_min_time_myopia) {
    std::cout << "Note: per-job min-time alone *can* lose under mid caps —"
                 " it burns the power budget on one wide, fast job and"
                 " serializes the rest.  Gear freedom needs an objective"
                 " that values headroom (min-EDP/min-energy above).\n";
  }
  ctx.metric("best_never_worse", best_never_worse ? 1.0 : 0.0);
  return best_never_worse ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::bench_main(argc, argv, "powercap_scheduling", run);
}
