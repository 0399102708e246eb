#include "policy/slack_reclaimer.hpp"

#include <algorithm>

#include "cluster/workload.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace gearsim::policy {

SlackReclaimer::SlackReclaimer(Params params, int nprocs)
    : RuntimeController(0), params_(std::move(params)), predictor_(
                                                            params_.alpha) {
  GEARSIM_REQUIRE(!params_.gear_slowdowns.empty(),
                  "need the per-gear slowdown ladder");
  GEARSIM_REQUIRE(params_.gear_slowdowns.front() > 0.0,
                  "slowdown ladder must start positive");
  for (std::size_t g = 1; g < params_.gear_slowdowns.size(); ++g) {
    GEARSIM_REQUIRE(params_.gear_slowdowns[g] >= params_.gear_slowdowns[g - 1],
                    "slowdown ladder must be non-decreasing");
  }
  GEARSIM_REQUIRE(params_.perf_budget >= 0.0, "negative performance budget");
  GEARSIM_REQUIRE(params_.hysteresis >= 1, "hysteresis must be >= 1");
  GEARSIM_REQUIRE(params_.safety > 0.0 && params_.safety <= 1.0,
                  "safety must be in (0, 1]");
  GEARSIM_REQUIRE(params_.pin_threshold >= 0.0 && params_.pin_threshold < 1.0,
                  "pin threshold must be in [0, 1)");
  GEARSIM_REQUIRE(params_.park_timeout.value() >= 0.0, "negative timeout");
  begin_run(nprocs);
}

std::string SlackReclaimer::signature() const {
  std::string sig = "slack-reclaimer{ladder=";
  for (std::size_t g = 0; g < params_.gear_slowdowns.size(); ++g) {
    if (g) sig += ',';
    sig += cluster::sig_value(params_.gear_slowdowns[g]);
  }
  sig += ";budget=" + cluster::sig_value(params_.perf_budget) +
         ",hysteresis=" + std::to_string(params_.hysteresis) +
         ",safety=" + cluster::sig_value(params_.safety) +
         ",pin=" + cluster::sig_value(params_.pin_threshold) +
         ",park=" + std::string(params_.park_while_blocked ? "1" : "0") +
         ",park_timeout=" + cluster::sig_value(params_.park_timeout.value()) +
         ",alpha=" + cluster::sig_value(params_.alpha) + "}";
  return sig;
}

void SlackReclaimer::reset(int nprocs) {
  predictor_.reset(nprocs);
  state_.assign(static_cast<std::size_t>(nprocs), RankState{});
  parks_ = votes_ = downshifts_ = upshifts_ = backoffs_ = 0;
}

void SlackReclaimer::publish(obs::MetricsRegistry& metrics) const {
  metrics.counter("policy.predictive_parks").add(parks_);
  metrics.counter("policy.hysteresis_votes").add(votes_);
  metrics.counter("policy.downshifts").add(downshifts_);
  metrics.counter("policy.upshifts").add(upshifts_);
  metrics.counter("policy.over_budget_backoffs").add(backoffs_);
}

void SlackReclaimer::observe_blocking_enter(int rank, mpi::CallType type,
                                            Bytes bytes, Seconds) {
  const auto r = static_cast<std::size_t>(rank);
  std::size_t comm = compute_gears_[r];
  if (params_.park_while_blocked) {
    const double predicted = predictor_.predict(rank, type, bytes);
    if (predicted > params_.park_timeout.value()) {
      comm = std::max(comm, params_.gear_slowdowns.size() - 1);
      ++parks_;
    }
  }
  comm_gears_[r] = comm;
}

void SlackReclaimer::observe_blocking_exit(int rank, mpi::CallType type,
                                           Bytes bytes, Seconds,
                                           Seconds waited) {
  predictor_.observe(rank, type, bytes, waited);
  state_[static_cast<std::size_t>(rank)].blocked += waited;
}

void SlackReclaimer::on_iteration_end(int rank, Seconds now) {
  const auto r = static_cast<std::size_t>(rank);
  RankState& s = state_[r];
  const Seconds span = now - s.iter_start;
  s.iter_start = now;
  const Seconds blocked = std::min(s.blocked, span);
  s.blocked = Seconds{};
  if (span.value() <= 0.0) return;

  const std::size_t gear = compute_gears_[r];

  // Warmup: no downshift can fire before `hysteresis` votes, so the
  // first `hysteresis` iterations all ran at the initial gear — average
  // them into the frozen gear-0 reference (span and slack).
  if (s.warmup < params_.hysteresis) {
    s.span_sum += span.value();
    s.blocked_sum += blocked.value();
    if (++s.warmup == params_.hysteresis) {
      s.ref_span = s.span_sum / params_.hysteresis;
      s.ref_blocked = s.blocked_sum / params_.hysteresis;
    }
    return;  // Still measuring: hold the initial gear.
  }
  const double budget_span = (1.0 + params_.perf_budget) * s.ref_span;

  if (gear > 0 && span.value() > budget_span) {
    // Over budget against the frozen reference: the "slack" this rank
    // reclaimed was really a neighbor's wait (lockstep coupling).  Back
    // off one gear immediately and cap the depth there for good —
    // re-taking the same gear would just oscillate.
    s.gear_cap = gear - 1;
    compute_gears_[r] = gear - 1;
    s.down_votes = 0;
    ++backoffs_;
    return;
  }

  // Target from the frozen gear-0 measurements, not the live ones: a
  // downshifted neighborhood inflates live blocked time, and chasing it
  // is the ratchet this controller exists to avoid.
  const double active0 = s.ref_span - s.ref_blocked;
  std::size_t target;
  if (s.ref_blocked < params_.pin_threshold * s.ref_span || active0 <= 0.0) {
    // (Almost) no slack: this rank is the critical path — pin it fast.
    target = 0;
  } else {
    // Slowest gear whose extra active time fits in the measured slack.
    // Slack-neutral by construction: the budget is enforced by the live
    // recovery guard above, not spent here.
    target = 0;
    for (std::size_t g = 0;
         g < params_.gear_slowdowns.size() && g <= s.gear_cap; ++g) {
      const double stretched = active0 * params_.gear_slowdowns[g];
      if (stretched <= active0 + params_.safety * s.ref_blocked) {
        target = std::max(target, g);
      }
    }
  }

  if (target > gear) {
    // Downshift only after `hysteresis` consecutive iterations agree,
    // and no further than the most conservative of their asks.
    s.down_target = s.down_votes == 0 ? target : std::min(s.down_target,
                                                          target);
    ++votes_;
    if (++s.down_votes >= params_.hysteresis) {
      compute_gears_[r] = s.down_target;
      s.down_votes = 0;
      ++downshifts_;
    }
  } else {
    s.down_votes = 0;
    // Upshift immediately: a rank that lost its slack must not keep
    // stretching the critical path while hysteresis counts.
    if (target < gear) {
      compute_gears_[r] = target;
      ++upshifts_;
    }
  }
}

}  // namespace gearsim::policy
