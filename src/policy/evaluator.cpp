#include "policy/evaluator.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "cluster/dvfs.hpp"
#include "exec/sweep_runner.hpp"
#include "policy/slack_reclaimer.hpp"
#include "policy/timeout_downshift.hpp"
#include "util/assert.hpp"

namespace gearsim::policy {

namespace {

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

/// Dominated by some static point: one exists that is no slower AND no
/// costlier (strictly better on at least one axis).
bool dominated_by_static(const cluster::RunResult& p,
                         const std::vector<cluster::RunResult>& statics) {
  for (const cluster::RunResult& q : statics) {
    const bool no_worse =
        q.wall.value() <= p.wall.value() && q.energy.value() <= p.energy.value();
    const bool better = q.wall.value() < p.wall.value() ||
                        q.energy.value() < p.energy.value();
    if (no_worse && better) return true;
  }
  return false;
}

}  // namespace

PolicyEvaluator::PolicyEvaluator(cluster::ClusterConfig config,
                                 Options options)
    : config_(std::move(config)), options_(options) {
  GEARSIM_REQUIRE(config_.gears.size() >= 2,
                  "policy evaluation needs at least two gears");
}

PolicyEvaluator::PolicyEvaluator(cluster::ClusterConfig config)
    : PolicyEvaluator(std::move(config), Options{}) {}

std::vector<double> slowdown_ladder(
    const std::vector<cluster::RunResult>& static_runs) {
  GEARSIM_REQUIRE(!static_runs.empty(), "need at least one static run");
  const double base = static_runs.front().breakdown.active_max.value();
  GEARSIM_REQUIRE(base > 0.0, "gear-0 run has no active time");
  std::vector<double> ladder;
  ladder.reserve(static_runs.size());
  for (const cluster::RunResult& run : static_runs) {
    double s = run.breakdown.active_max.value() / base;
    // Clamp non-decreasing: simulation noise must not produce a ladder
    // where a slower gear looks faster.
    if (!ladder.empty()) s = std::max(s, ladder.back());
    ladder.push_back(s);
  }
  return ladder;
}

std::vector<RosterEntry> policy_roster(
    const cluster::ClusterConfig& config,
    const std::vector<cluster::RunResult>& static_runs,
    const PolicyEvaluator::Options& options) {
  const std::vector<double> ladder = slowdown_ladder(static_runs);
  const std::size_t slowest = config.gears.size() - 1;

  // Factories (not instances) because adaptive controllers carry per-run
  // state — the sweep runner instantiates one per point.
  std::vector<RosterEntry> roster;
  const cluster::PerRankGear planned = cluster::plan_node_bottleneck(
      static_runs.front(), ladder, options.safety);
  roster.push_back({"node-bottleneck",
                    cluster::PolicyFactory([gears = planned.gears()](int) {
                      return std::make_unique<cluster::PerRankGear>(gears);
                    })});
  roster.push_back({"comm-downshift",
                    cluster::PolicyFactory([slowest](int) {
                      return std::make_unique<cluster::CommDownshift>(0,
                                                                      slowest);
                    })});
  TimeoutDownshift::Params tp;
  tp.park_gear = slowest;
  tp.timeout = options.timeout;
  roster.push_back({"timeout-downshift",
                    cluster::PolicyFactory([tp](int nprocs) {
                      return std::make_unique<TimeoutDownshift>(tp, nprocs);
                    })});
  SlackReclaimer::Params sp;
  sp.gear_slowdowns = ladder;
  sp.perf_budget = options.perf_budget;
  sp.safety = options.safety;
  sp.park_timeout = options.timeout;
  roster.push_back({"slack-reclaimer",
                    cluster::PolicyFactory([sp](int nprocs) {
                      return std::make_unique<SlackReclaimer>(sp, nprocs);
                    })});
  return roster;
}

Evaluation assemble_evaluation(std::string workload_name, int nodes,
                               std::vector<cluster::RunResult> static_runs,
                               std::vector<PolicyRun> policy_runs) {
  Evaluation eval;
  eval.workload = std::move(workload_name);
  eval.nodes = nodes;
  eval.static_runs = std::move(static_runs);
  eval.gear_slowdowns = slowdown_ladder(eval.static_runs);

  const cluster::RunResult& fastest = eval.static_runs.front();
  GEARSIM_ENSURE(fastest.wall.value() > 0.0 && fastest.energy.value() > 0.0,
                 "degenerate gear-0 baseline");
  for (PolicyRun& run : policy_runs) {
    PolicyRow row;
    row.name = std::move(run.name);
    row.signature = std::move(run.signature);
    row.time_delta = run.result.wall / fastest.wall - 1.0;
    row.energy_delta =
        run.result.energy.value() / fastest.energy.value() - 1.0;
    row.on_frontier = !dominated_by_static(run.result, eval.static_runs);
    row.result = std::move(run.result);
    eval.policies.push_back(std::move(row));
  }
  return eval;
}

Evaluation PolicyEvaluator::evaluate(const cluster::Workload& workload,
                                     int nodes) const {
  exec::SweepRunner runner(config_, {options_.jobs, options_.cache,
                                     options_.faults, options_.metrics});

  std::vector<cluster::RunResult> static_runs =
      runner.gear_sweep(workload, nodes);
  const std::vector<RosterEntry> roster =
      policy_roster(config_, static_runs, options_);

  std::vector<exec::SweepPoint> points;
  points.reserve(roster.size());
  for (const RosterEntry& entry : roster) {
    points.push_back(
        exec::SweepPoint{&workload, nodes, 0, 0, &entry.factory});
  }
  const std::vector<cluster::RunResult> runs = runner.run(points);

  std::vector<PolicyRun> policy_runs;
  policy_runs.reserve(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    policy_runs.push_back(
        PolicyRun{roster[i].name, roster[i].factory.signature(), runs[i]});
  }
  return assemble_evaluation(workload.name(), nodes, std::move(static_runs),
                             std::move(policy_runs));
}

std::string policy_table(const Evaluation& eval) {
  std::string out = eval.workload + " on " + std::to_string(eval.nodes) +
                    " nodes: static gears vs adaptive policies\n";
  out +=
      "  policy              wall [s]   energy [J]   dT%     dE%    frontier\n";
  const cluster::RunResult& fastest = eval.static_runs.front();
  char line[160];
  for (const cluster::RunResult& run : eval.static_runs) {
    std::snprintf(line, sizeof(line),
                  "  gear %-14d %9.3f %12.1f %6.1f%% %6.1f%%\n",
                  run.gear_label, run.wall.value(), run.energy.value(),
                  (run.wall / fastest.wall - 1.0) * 100.0,
                  (run.energy.value() / fastest.energy.value() - 1.0) * 100.0);
    out += line;
  }
  for (const PolicyRow& row : eval.policies) {
    std::snprintf(line, sizeof(line),
                  "  %-19s %9.3f %12.1f %6.1f%% %6.1f%%   %s\n",
                  row.name.c_str(), row.result.wall.value(),
                  row.result.energy.value(), row.time_delta * 100.0,
                  row.energy_delta * 100.0, row.on_frontier ? "yes" : "-");
    out += line;
  }
  return out;
}

report::SvgPlot policy_figure(const std::string& title,
                              const Evaluation& eval) {
  report::SvgPlot plot(title, "execution time [s]", "energy [J]");
  report::SvgSeries statics;
  statics.label = "uniform gears (" + std::to_string(eval.nodes) + " nodes)";
  for (const cluster::RunResult& run : eval.static_runs) {
    statics.points.emplace_back(run.wall.value(), run.energy.value());
    statics.point_labels.push_back(std::to_string(run.gear_label));
  }
  plot.add_series(std::move(statics));
  for (const PolicyRow& row : eval.policies) {
    report::SvgSeries series;
    series.label = row.name + (row.on_frontier ? " *" : "");
    series.points.emplace_back(row.result.wall.value(),
                               row.result.energy.value());
    series.point_labels.push_back(fmt("%+.0f%%", row.energy_delta * 100.0));
    plot.add_series(std::move(series));
  }
  return plot;
}

}  // namespace gearsim::policy
