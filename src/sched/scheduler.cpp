#include "sched/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <list>
#include <optional>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace gearsim::sched {

const BatchPlacement& BatchResult::placement(const std::string& job_id) const {
  const auto it = std::find_if(
      placements.begin(), placements.end(),
      [&job_id](const BatchPlacement& p) { return p.job_id == job_id; });
  GEARSIM_REQUIRE(it != placements.end(),
                  "no completed run for job " + job_id);
  return *it;
}

BatchScheduler::BatchScheduler(Machine machine, BatchOptions options)
    : machine_(machine), options_(options) {
  GEARSIM_REQUIRE(machine_.nodes >= 1, "machine needs nodes");
  GEARSIM_REQUIRE(machine_.power_cap.value() > 0.0, "non-positive power cap");
  GEARSIM_REQUIRE(machine_.idle_node_power.value() >= 0.0,
                  "negative idle power");
  GEARSIM_REQUIRE(
      machine_.power_cap >=
          static_cast<double>(machine_.nodes) * machine_.idle_node_power,
      "the cap cannot even park the machine's nodes");
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One change in machine capacity (outage: negative, repair: positive).
struct CapacityEvent {
  Seconds at{};
  int delta = 0;
};

/// One job on the machine.  `gear` is the live frontier point; `end` is
/// the projected completion at that gear and is recomputed whenever the
/// arbiter shifts the job.
struct BatchRunning {
  const BatchJob* job = nullptr;
  std::size_t submit = 0;     ///< Index into the submitted jobs vector.
  int nodes = 0;
  ConfigPoint gear{};
  int start_gear_label = 0;
  int gear_changes = 0;
  double remaining = 1.0;     ///< Fraction of the run still to do.
  Seconds start{};
  Seconds end{};              ///< Projected completion at the current gear.
  Seconds deadline{};         ///< start + wall limit (inf = none).
  Joules burned{};            ///< Draw integrated since `start`.
  Watts prev_draw{};          ///< Draw before the current event.
  bool pre_existing = false;  ///< Already running when the event began?
};

struct PendingBatch {
  const BatchJob* job = nullptr;
  std::size_t submit = 0;
};

}  // namespace

BatchResult BatchScheduler::schedule(const std::vector<BatchJob>& jobs,
                                     const std::vector<NodeOutage>& outages,
                                     obs::MetricsRegistry* metrics) const {
  std::vector<std::string> seen_ids;
  for (const auto& job : jobs) {
    GEARSIM_REQUIRE(job.profile != nullptr,
                    "job " + job.script.id + " without a profile");
    GEARSIM_REQUIRE(job.script.total_tasks >= 1,
                    "job " + job.script.id + " requests no tasks");
    GEARSIM_REQUIRE(job.script.arrival.value() >= 0.0,
                    "job " + job.script.id + " arrives before time zero");
    GEARSIM_REQUIRE(std::isfinite(job.script.arrival.value()),
                    "job " + job.script.id + " never arrives");
    GEARSIM_REQUIRE(job.script.wall_clock_limit.value() >= 0.0,
                    "job " + job.script.id + " has a negative wall limit");
    GEARSIM_REQUIRE(std::find(seen_ids.begin(), seen_ids.end(),
                              job.script.id) == seen_ids.end(),
                    "duplicate job id " + job.script.id);
    seen_ids.push_back(job.script.id);
  }

  std::vector<CapacityEvent> cap_events;
  for (const auto& outage : outages) {
    GEARSIM_REQUIRE(outage.at.value() >= 0.0, "outage before time zero");
    GEARSIM_REQUIRE(outage.nodes_lost >= 1 &&
                        outage.nodes_lost <= machine_.nodes,
                    "outage size outside the machine");
    GEARSIM_REQUIRE(outage.repair_after.value() > 0.0,
                    "repair must take positive time");
    cap_events.push_back(CapacityEvent{outage.at, -outage.nodes_lost});
    if (std::isfinite(outage.repair_after.value())) {
      cap_events.push_back(
          CapacityEvent{outage.at + outage.repair_after, outage.nodes_lost});
    }
  }
  std::stable_sort(cap_events.begin(), cap_events.end(),
                   [](const CapacityEvent& a, const CapacityEvent& b) {
                     return a.at < b.at;
                   });

  const GearArbiter arbiter(machine_.power_cap, machine_.idle_node_power);

  std::vector<BatchRunning> running;
  const auto busy_nodes = [&running] {
    int sum = 0;
    for (const auto& r : running) sum += r.nodes;
    return sum;
  };
  const auto jobs_draw = [&running] {
    Watts sum{};
    for (const auto& r : running) sum += r.gear.mean_power();
    return sum;
  };

  // Distinct profile widths this job may be molded onto, narrowest
  // first.  total_tasks is the job's *maximum* width.
  const auto widths_for = [this](const BatchJob& job) {
    const int cap_width = std::min(job.script.total_tasks, machine_.nodes);
    std::vector<int> widths;
    for (const auto& p : job.profile->points()) {
      if (p.nodes <= cap_width &&
          std::find(widths.begin(), widths.end(), p.nodes) == widths.end()) {
        widths.push_back(p.nodes);
      }
    }
    std::sort(widths.begin(), widths.end());
    return widths;
  };

  const auto wall_limit = [](const BatchJob& job) {
    return job.script.wall_clock_limit.value() > 0.0
               ? job.script.wall_clock_limit
               : seconds(kInf);
  };

  // Admission with arbitration on fixes only the *width* and is
  // deliberately optimistic on gears: a job is admitted when the machine
  // could hold everyone — newcomer included — at the lowest rung of
  // their ladders with the rest parked, because the arbiter can always
  // retreat to exactly that assignment.  Checking against the current
  // (arbitrated, near-cap) draw instead would seal the machine: no
  // queued job could ever start while arbitration keeps it saturated.
  // The feasibility arithmetic mirrors GearArbiter::arbitrate term for
  // term so admission never places a job the arbiter must immediately
  // evict.  Returns the width's lowest rung; arbitration assigns the
  // real gear in the same event.
  const auto choose_width = [&](const BatchJob& job,
                                int capacity) -> std::optional<ConfigPoint> {
    const Seconds limit = wall_limit(job);
    const int busy = busy_nodes();
    std::optional<ConfigPoint> winner;
    double winner_score = 0.0;
    for (int w : widths_for(job)) {
      if (w > capacity - busy) continue;
      const auto ladder = job.profile->gear_frontier(w);
      if (ladder.front().time > limit) continue;  // Dies even at top gear.
      const Watts budget =
          machine_.power_cap -
          static_cast<double>(capacity - busy - w) * machine_.idle_node_power;
      Watts floor{};
      for (const auto& r : running) {
        floor += r.job->profile->gear_frontier(r.nodes).back().mean_power();
      }
      floor += ladder.back().mean_power();
      if (floor > budget) continue;
      // The width's best reachable score: the arbiter may grant any rung.
      double score = kInf;
      for (const auto& p : ladder) {
        score = std::min(score, objective_score(job.script.tag, p));
      }
      if (!winner || score < winner_score ||
          (score == winner_score && w < winner->nodes)) {
        winner = ladder.back();
        winner_score = score;
      }
    }
    return winner;
  };

  // Admission with arbitration off picks the exact (width, gear) point
  // with the best objective_score that fits under the cap next to the
  // *frozen* draw of everything running, with the job's wall limit as a
  // hard filter.  Nodes left parked keep drawing idle power, so the
  // budget depends on how many the candidate occupies; ties break
  // toward fewer nodes (frees the machine).
  const auto choose_frozen = [&](const BatchJob& job,
                                 int capacity) -> std::optional<ConfigPoint> {
    const Seconds limit = wall_limit(job);
    const int busy = busy_nodes();
    const int cap_width = std::min(job.script.total_tasks, machine_.nodes);
    const Watts draw = jobs_draw();
    std::optional<ConfigPoint> winner;
    double winner_score = 0.0;
    for (const auto& p : job.profile->points()) {
      if (p.nodes > cap_width || p.nodes > capacity - busy) continue;
      if (p.time > limit) continue;
      const Watts parked =
          static_cast<double>(capacity - busy - p.nodes) *
          machine_.idle_node_power;
      if (draw + p.mean_power() + parked > machine_.power_cap) continue;
      const double score = objective_score(job.script.tag, p);
      if (!winner || score < winner_score ||
          (score == winner_score && p.nodes < winner->nodes)) {
        winner = p;
        winner_score = score;
      }
    }
    return winner;
  };

  // Every job must be runnable on the empty machine within its limit.
  for (const auto& job : jobs) {
    const auto fit = options_.arbitrate ? choose_width(job, machine_.nodes)
                                        : choose_frozen(job, machine_.nodes);
    GEARSIM_REQUIRE(fit.has_value(),
                    "job " + job.script.id +
                        " cannot run on this machine at any configuration "
                        "within its wall limit");
  }

  std::vector<std::size_t> arrival_order(jobs.size());
  for (std::size_t i = 0; i < arrival_order.size(); ++i) arrival_order[i] = i;
  std::stable_sort(arrival_order.begin(), arrival_order.end(),
                   [&jobs](std::size_t a, std::size_t b) {
                     return jobs[a].script.arrival < jobs[b].script.arrival;
                   });

  BatchResult result;
  result.min_headroom = machine_.power_cap;
  std::list<PendingBatch> pending;

  // Kill the youngest-started job (ties: the latest-placed — least sunk
  // work), charge its partial burn to wasted_energy, and hand it back
  // for re-queueing.
  const auto kill_youngest = [&]() -> PendingBatch {
    std::size_t victim = 0;
    for (std::size_t i = 1; i < running.size(); ++i) {
      if (running[i].start >= running[victim].start) victim = i;
    }
    const BatchRunning r = running[victim];
    running.erase(running.begin() + static_cast<std::ptrdiff_t>(victim));
    result.wasted_energy += r.burned;
    ++result.preemptions;
    return PendingBatch{r.job, r.submit};
  };

  // Victims killed at one event re-enter at the front of the queue in
  // their original submission order.  Pushing each to the front as it
  // dies would invert that order for multi-victim outages.
  const auto requeue = [&pending](std::vector<PendingBatch> victims) {
    std::sort(victims.begin(), victims.end(),
              [](const PendingBatch& a, const PendingBatch& b) {
                return a.submit > b.submit;
              });
    for (const auto& v : victims) pending.push_front(v);
  };

  Seconds now{};
  int capacity = machine_.nodes;
  std::size_t next_cap = 0;
  std::size_t next_arrival = 0;

  while (!running.empty() || !pending.empty() ||
         next_arrival < arrival_order.size()) {
    // 1. Capacity changes due at `now`.
    while (next_cap < cap_events.size() && cap_events[next_cap].at <= now) {
      capacity += cap_events[next_cap].delta;
      ++next_cap;
    }
    GEARSIM_ENSURE(capacity >= 0, "more nodes down than the machine has");

    // Jobs on the machine before this event: arbitration deltas against
    // their draw measure what the event redistributed.
    for (auto& r : running) {
      r.prev_draw = r.gear.mean_power();
      r.pre_existing = true;
    }

    // 2. Completions — before any kill: a job finishing exactly at an
    // outage or at its own deadline has finished.
    for (auto it = running.begin(); it != running.end();) {
      if (it->end <= now) {
        result.placements.push_back(BatchPlacement{
            it->job->script.id, it->job->profile->workload_name(),
            it->job->script.tag, it->nodes, it->start, it->end,
            it->start_gear_label, it->gear.gear_label, it->gear_changes,
            it->burned});
        result.job_energy += it->burned;
        it = running.erase(it);
      } else {
        ++it;
      }
    }

    // 3. Arrivals.
    while (next_arrival < arrival_order.size() &&
           jobs[arrival_order[next_arrival]].script.arrival <= now) {
      const std::size_t idx = arrival_order[next_arrival];
      pending.push_back(PendingBatch{&jobs[idx], idx});
      ++next_arrival;
    }

    // 4. Wall-limit kills: arbitration may have held a job below the
    // gear its admission projected, pushing completion past
    // start + wall_clock_limit.  Killed for good — not re-queued.
    for (auto it = running.begin(); it != running.end();) {
      if (it->deadline <= now) {
        result.wasted_energy += it->burned;
        ++result.wall_limit_kills;
        it = running.erase(it);
      } else {
        ++it;
      }
    }

    // 5. Outage kills, youngest-started first.
    {
      std::vector<PendingBatch> victims;
      while (busy_nodes() > capacity) victims.push_back(kill_youngest());
      requeue(std::move(victims));
    }

    // 6. Placements.
    bool placed_any = true;
    while (placed_any) {
      placed_any = false;
      for (auto it = pending.begin(); it != pending.end(); ++it) {
        const BatchJob& job = *it->job;
        const auto config = options_.arbitrate ? choose_width(job, capacity)
                                               : choose_frozen(job, capacity);
        if (config) {
          BatchRunning r;
          r.job = it->job;
          r.submit = it->submit;
          r.nodes = config->nodes;
          r.gear = *config;
          r.start_gear_label = config->gear_label;
          r.start = now;
          r.end = now + config->time;
          r.deadline = job.script.wall_clock_limit.value() > 0.0
                           ? now + job.script.wall_clock_limit
                           : seconds(kInf);
          running.push_back(r);
          pending.erase(it);
          placed_any = true;
          break;  // Restart the scan with updated state.
        }
        if (options_.discipline == QueueDiscipline::kFifo) break;
      }
    }

    // 7. Gear arbitration — the heart of the multi-tenant mode: every
    // running job's gear is reassigned from scratch, so a completion,
    // crash or repair hands its budget to the survivors within the same
    // event.  A repair can make even the all-lowest-rung assignment
    // infeasible (the returning nodes' idle draw shrinks the budget);
    // jobs are then evicted youngest-first until the survivors fit.
    // Frozen gears cannot absorb that draw at all; the frozen arm keeps
    // the cap invariant by evicting youngest-started jobs instead.
    std::vector<PendingBatch> evicted;
    if (options_.arbitrate) {
      while (!running.empty()) {
        std::vector<ArbiterJob> arb_jobs;
        arb_jobs.reserve(running.size());
        for (const auto& r : running) {
          arb_jobs.push_back(
              ArbiterJob{r.job->profile, r.nodes, r.job->script.tag});
        }
        const auto outcome =
            arbiter.arbitrate(arb_jobs, capacity - busy_nodes());
        ++result.arbitrations;
        if (outcome) {
          for (std::size_t i = 0; i < running.size(); ++i) {
            BatchRunning& r = running[i];
            const ConfigPoint& g = outcome->gears[i];
            if (r.pre_existing) {
              if (g.gear_label != r.gear.gear_label) ++r.gear_changes;
              const Watts delta = g.mean_power() - r.prev_draw;
              if (delta.value() > 0.0) result.redistributed_watts += delta;
            } else {
              r.start_gear_label = g.gear_label;
            }
            r.gear = g;
            r.end = now + seconds(r.remaining * g.time.value());
          }
          break;
        }
        evicted.push_back(kill_youngest());
      }
    } else {
      while (jobs_draw() + static_cast<double>(capacity - busy_nodes()) *
                               machine_.idle_node_power >
             machine_.power_cap) {
        evicted.push_back(kill_youngest());
      }
    }
    const bool evicted_any = !evicted.empty();
    requeue(std::move(evicted));

    // 8. Sample the draw this event leaves behind.  The cap is a hard
    // invariant in both modes; the epsilon only absorbs the re-ordered
    // floating-point sums of the feasibility checks above.
    const int parked = capacity - busy_nodes();
    const Watts draw =
        jobs_draw() + static_cast<double>(parked) * machine_.idle_node_power;
    GEARSIM_ENSURE(draw <= machine_.power_cap +
                               watts(1e-9 * (1.0 + machine_.power_cap.value())),
                   "instantaneous draw exceeds the power cap");
    result.power_timeline.push_back(PowerSample{now, draw});
    result.peak_power = std::max(result.peak_power, draw);
    result.min_headroom =
        std::min(result.min_headroom, machine_.power_cap - draw);

    // 9. Advance to the next event, integrating energy and progress over
    // the constant-draw interval.  The schedule is over when nothing is
    // running, queued or still to arrive — trailing capacity events
    // must not stretch the makespan.
    if (running.empty() && pending.empty() &&
        next_arrival >= arrival_order.size()) {
      break;
    }
    Seconds t_next = seconds(kInf);
    if (next_arrival < arrival_order.size()) {
      t_next =
          std::min(t_next, jobs[arrival_order[next_arrival]].script.arrival);
    }
    if (next_cap < cap_events.size()) {
      t_next = std::min(t_next, cap_events[next_cap].at);
    }
    for (const auto& r : running) {
      t_next = std::min(t_next, r.end);
      t_next = std::min(t_next, r.deadline);
    }
    // Evictions can empty the machine with nothing left to wait for;
    // the victims then retry placement on it at the same instant (a
    // placement never forces an eviction, so this cannot repeat).
    if (!std::isfinite(t_next.value()) && evicted_any) continue;
    GEARSIM_ENSURE(std::isfinite(t_next.value()),
                   "batch scheduler wedged with pending jobs");
    const Seconds dt = t_next - now;
    result.idle_energy +=
        static_cast<double>(parked) * machine_.idle_node_power * dt;
    for (auto& r : running) {
      r.burned += r.gear.mean_power() * dt;
      r.remaining -= dt.value() / r.gear.time.value();
      if (r.remaining < 0.0) r.remaining = 0.0;
    }
    now = t_next;
  }

  result.makespan = now;

  if (metrics != nullptr) {
    metrics->counter("sched.arbitrations").add(result.arbitrations);
    metrics->counter("sched.preemptions")
        .add(static_cast<std::uint64_t>(result.preemptions));
    metrics->counter("sched.wall_limit_kills")
        .add(static_cast<std::uint64_t>(result.wall_limit_kills));
    metrics->gauge("sched.cap.headroom", obs::Gauge::Kind::kLast)
        .set(result.min_headroom.value());
    metrics->gauge("sched.redistributed_watts", obs::Gauge::Kind::kLast)
        .set(result.redistributed_watts.value());
  }
  return result;
}

}  // namespace gearsim::sched
