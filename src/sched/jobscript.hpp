// LoadLeveler-style job descriptions for the batch scheduler.
//
// Real power-capped sites feed their schedulers job *scripts*, not API
// calls.  The grammar here is the `#@ keyword = value` dialect of the
// HemoCell production scripts (see SNIPPETS.md): a stanza of keyword
// lines terminated by `#@ queue` submits one job.  The keys the
// scheduler acts on:
//
//   #@ job_name         = cg-large         (job id; defaults to job<N>)
//   #@ workload         = CG               (gearsim: simulator workload)
//   #@ total_tasks      = 8                (max MPI ranks == max nodes)
//   #@ wall_clock_limit = 00:30:00         (HH:MM:SS or plain seconds;
//                                           0 / absent = unlimited)
//   #@ arrival          = 120              (gearsim: submit time, s)
//   #@ energy_policy_tag = my_tag          (site tag; the minimize_*
//                                           lines below bind it)
//   #@ minimize_time_to_solution   = yes   -> kMinimizeTimeToSolution
//   #@ minimize_energy_to_solution = yes   -> kMinimizeEnergyToSolution
//
// `energy_policy_tag` may also name the policy directly
// (`minimize_time_to_solution`, `minimize_energy_to_solution`,
// `minimize_edp`, `none`); `minimize_edp` binds only that way — it has
// no `#@ minimize_*` keyword line.  Unknown `#@` keys (output, error,
// notification, class, island_count, ...) are ignored, as are non-`#@`
// lines (the shell payload), so real LoadLeveler scripts parse
// unmodified.  Malformed or non-finite values and contradictory
// minimize_* lines throw ContractError.
#pragma once

#include <string>
#include <vector>

#include "util/units.hpp"

namespace gearsim::sched {

/// The per-job energy policy vocabulary (COUNTDOWN / power-redistribution
/// papers): how the gear arbiter treats this job's share of the site cap.
enum class EnergyPolicyTag {
  kMinimizeTimeToSolution,    ///< First claim on headroom; runs as fast as
                              ///< the cap allows.
  kMinimizeEnergyToSolution,  ///< Holds its energy-optimal gear; never
                              ///< upshifts past it, yields headroom.
  kMinimizeEdp,               ///< Holds its energy-delay-optimal gear;
                              ///< untagged priority for headroom.
  kNone,                      ///< No policy: takes leftover headroom after
                              ///< the tagged jobs.
};

[[nodiscard]] std::string to_string(EnergyPolicyTag tag);

/// One parsed job stanza.
struct JobScript {
  std::string id;                ///< job_name (or "job<N>" by position).
  std::string workload = "CG";   ///< Simulator workload name.
  int total_tasks = 1;           ///< Requested ranks; the placement width
                                 ///< ceiling (the scheduler may run the
                                 ///< job narrower, never wider).
  Seconds wall_clock_limit{};    ///< 0 = unlimited; exceeded => killed.
  Seconds arrival{};             ///< Submission time (s since epoch 0).
  EnergyPolicyTag tag = EnergyPolicyTag::kNone;
};

/// Parse every `#@ ... #@ queue` stanza in `text` (submission order).
/// Throws ContractError on malformed stanzas or keyword lines after the
/// last `#@ queue` (a stanza that never queues is a script bug).
[[nodiscard]] std::vector<JobScript> parse_job_scripts(
    const std::string& text);

/// Parse exactly one stanza; throws unless `text` queues exactly one job.
[[nodiscard]] JobScript parse_job_script(const std::string& text);

/// Parse a LoadLeveler wall-clock limit: "HH:MM:SS", "MM:SS", or plain
/// seconds.  Throws ContractError on malformed, negative or non-finite
/// input.
[[nodiscard]] Seconds parse_wall_clock_limit(const std::string& text);

}  // namespace gearsim::sched
