// Multi-tenant power-cap mix (the production-mode companion to
// powercap_scheduling).
//
// powercap_scheduling sweeps the cap over a 3-job queue that all arrives
// at once, on the scheduler's frozen arm, where every job's (nodes,
// gear) is fixed at placement.  This bench runs the same rack in *batch*
// mode: a 12-job
// LoadLeveler-style queue with mixed energy-policy tags arrives over
// five minutes, a two-node outage hits mid-run, and the GearArbiter
// re-assigns gears at every event so a finished or crashed job's power
// budget flows to the survivors instead of sitting parked.  At each cap
// level we schedule the identical queue twice — arbitration on, and the
// frozen-gear control arm (BatchOptions.arbitrate = false) — and report
// the makespan the redistribution buys back.
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "exec/result_cache.hpp"
#include "exec/sweep_runner.hpp"
#include "harness.hpp"
#include "sched/scheduler.hpp"
#include "util/table.hpp"
#include "workloads/registry.hpp"

using namespace gearsim;

namespace {

// The queue goes in as a job script — same grammar the `gearsim sched`
// command and docs/SCHEDULER.md describe — so the bench exercises the
// parser end to end, not just the scheduler.
const char* const kMixScript = R"(#!/bin/sh
#@ job_name = cg-a
#@ workload = CG
#@ total_tasks = 8
#@ minimize_time_to_solution = yes
#@ queue
#@ job_name = lu-a
#@ workload = LU
#@ total_tasks = 4
#@ minimize_energy_to_solution = yes
#@ queue
#@ job_name = ep-a
#@ workload = EP
#@ total_tasks = 2
#@ queue
#@ job_name = cg-b
#@ workload = CG
#@ total_tasks = 4
#@ arrival = 30
#@ minimize_energy_to_solution = yes
#@ queue
#@ job_name = lu-b
#@ workload = LU
#@ total_tasks = 8
#@ arrival = 60
#@ minimize_time_to_solution = yes
#@ queue
#@ job_name = ep-b
#@ workload = EP
#@ total_tasks = 4
#@ arrival = 90
#@ queue
#@ job_name = cg-c
#@ workload = CG
#@ total_tasks = 2
#@ arrival = 120
#@ queue
#@ job_name = lu-c
#@ workload = LU
#@ total_tasks = 2
#@ arrival = 150
#@ minimize_energy_to_solution = yes
#@ queue
#@ job_name = ep-c
#@ workload = EP
#@ total_tasks = 8
#@ arrival = 180
#@ minimize_time_to_solution = yes
#@ queue
#@ job_name = cg-d
#@ workload = CG
#@ total_tasks = 4
#@ arrival = 210
#@ minimize_time_to_solution = yes
#@ queue
#@ job_name = lu-d
#@ workload = LU
#@ total_tasks = 4
#@ arrival = 240
#@ queue
#@ job_name = ep-d
#@ workload = EP
#@ total_tasks = 2
#@ arrival = 270
#@ minimize_energy_to_solution = yes
#@ queue
)";

int run(bench::BenchContext& ctx) {
  // Profiles come through the sweep executor (GEARSIM_SWEEP_JOBS,
  // GEARSIM_CACHE_DIR honored) — with a shared cache dir this bench and
  // powercap_scheduling measure the same 54 points exactly once between
  // them.
  exec::ResultCache::Options cache_options;
  if (const char* dir = std::getenv("GEARSIM_CACHE_DIR")) {
    cache_options.disk_dir = dir;
  }
  exec::ResultCache cache(cache_options);
  exec::SweepOptions sweep_options;
  sweep_options.cache = &cache;
  const exec::SweepRunner runner(cluster::athlon_cluster(), sweep_options);

  std::map<std::string, sched::WorkloadProfile> profiles;
  for (const char* name : {"CG", "LU", "EP"}) {
    const auto workload = workloads::make_workload(name);
    profiles.emplace(name,
                     sched::WorkloadProfile::measure(runner, *workload, 8));
  }

  std::vector<sched::BatchJob> jobs;
  for (const auto& script : sched::parse_job_scripts(kMixScript)) {
    jobs.push_back({script, &profiles.at(script.workload)});
  }
  // Two nodes fail while the queue is at its deepest and come back three
  // minutes later — the redistribution stress the arbiter exists for.
  const std::vector<sched::NodeOutage> outages = {
      {seconds(120.0), 2, seconds(180.0)}};

  std::cout << "=== Power-cap mix: 12-job batch queue, gear arbitration"
               " vs frozen gears ===\n"
            << "(10 nodes idling at 85 W each; two-node outage at t=120 s,"
               " repaired at t=300 s)\n\n";

  TextTable table({"cap [W]", "arbitrated [s]", "frozen [s]", "gain [s]",
                   "arb energy [kJ]", "redistributed [W]", "min headroom [W]"});
  bool caps_respected = true;
  bool deterministic = true;
  double tightest_gain = 0.0;
  for (double cap : {1500.0, 1250.0, 1100.0}) {
    const sched::Machine rack{10, watts(cap), watts(85.0)};
    const sched::BatchScheduler arb(
        rack, {sched::QueueDiscipline::kGreedy, /*arbitrate=*/true});
    const sched::BatchScheduler frozen(
        rack, {sched::QueueDiscipline::kGreedy, /*arbitrate=*/false});
    const auto a = arb.schedule(jobs, outages);
    const auto f = frozen.schedule(jobs, outages);
    const auto rerun = arb.schedule(jobs, outages);
    if (a.makespan != rerun.makespan ||
        a.total_energy() != rerun.total_energy() ||
        a.redistributed_watts != rerun.redistributed_watts) {
      deterministic = false;
    }
    for (const auto* r : {&a, &f}) {
      if (r->min_headroom.value() < 0.0 || r->peak_power.value() > cap) {
        caps_respected = false;
      }
    }
    const double gain = f.makespan.value() - a.makespan.value();
    tightest_gain = gain;  // Caps iterate loosest to tightest.
    table.add_row({fmt_fixed(cap, 0), fmt_fixed(a.makespan.value(), 1),
                   fmt_fixed(f.makespan.value(), 1), fmt_fixed(gain, 1),
                   fmt_fixed(a.total_energy().value() / 1e3, 1),
                   fmt_fixed(a.redistributed_watts.value(), 0),
                   fmt_fixed(a.min_headroom.value(), 0)});
    const std::string prefix = "cap" + fmt_fixed(cap, 0);
    ctx.metric(prefix + ".arb_makespan_s", a.makespan.value());
    ctx.metric(prefix + ".frozen_makespan_s", f.makespan.value());
    ctx.metric(prefix + ".arb_energy_kj", a.total_energy().value() / 1e3);
    ctx.metric(prefix + ".frozen_energy_kj", f.total_energy().value() / 1e3);
    ctx.metric(prefix + ".redistributed_w", a.redistributed_watts.value());
    ctx.metric(prefix + ".preemptions", static_cast<double>(a.preemptions));
  }
  std::cout << table.to_string() << '\n'
            << "Cap invariant held at every sampled event on every run: "
            << (caps_respected ? "verified" : "VIOLATED") << ".\n"
            << "Arbitrated reruns byte-identical: "
            << (deterministic ? "verified" : "VIOLATED") << ".\n";

  const auto stats = runner.cache_stats();
  ctx.info("profile_cache", std::to_string(stats.hits + stats.disk_hits) +
                                " hits / " + std::to_string(stats.misses) +
                                " misses");
  ctx.metric("caps_respected", caps_respected ? 1.0 : 0.0);
  ctx.metric("deterministic", deterministic ? 1.0 : 0.0);
  ctx.metric("tightest_cap_gain_s", tightest_gain);
  return (caps_respected && deterministic) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::bench_main(argc, argv, "powercap_mix", run);
}
