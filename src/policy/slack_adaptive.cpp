#include "policy/slack_adaptive.hpp"

#include "cluster/workload.hpp"
#include "util/assert.hpp"

namespace gearsim::policy {

SlackAdaptive::SlackAdaptive(Params params, int nprocs)
    : RuntimeController(params.initial_gear), params_(params) {
  GEARSIM_REQUIRE(params_.lo >= 0.0 && params_.lo < params_.hi &&
                      params_.hi <= 1.0,
                  "thresholds must satisfy 0 <= lo < hi <= 1");
  GEARSIM_REQUIRE(params_.window >= 1, "window must be positive");
  GEARSIM_REQUIRE(params_.initial_gear <= params_.slowest_gear,
                  "initial gear beyond the slowest allowed");
  begin_run(nprocs);
}

std::string SlackAdaptive::signature() const {
  return "slack-adaptive{initial=" + std::to_string(params_.initial_gear) +
         ",hi=" + cluster::sig_value(params_.hi) +
         ",lo=" + cluster::sig_value(params_.lo) +
         ",window=" + std::to_string(params_.window) +
         ",slowest=" + std::to_string(params_.slowest_gear) + "}";
}

void SlackAdaptive::reset(int nprocs) {
  windows_.assign(static_cast<std::size_t>(nprocs), Window{});
}

void SlackAdaptive::observe_blocking_enter(int rank, mpi::CallType, Bytes,
                                           Seconds now) {
  Window& w = windows_[static_cast<std::size_t>(rank)];
  if (!w.started) {
    w.started = true;
    w.start = now;
  }
}

void SlackAdaptive::observe_blocking_exit(int rank, mpi::CallType, Bytes,
                                          Seconds now, Seconds waited) {
  const auto r = static_cast<std::size_t>(rank);
  Window& w = windows_[r];
  if (!w.started) return;
  w.blocked += waited;
  if (++w.intervals < params_.window) return;
  const Seconds elapsed = now - w.start;
  if (elapsed.value() > 0.0) {
    const double blocked_share = w.blocked / elapsed;
    std::size_t& gear = compute_gears_[r];
    if (blocked_share > params_.hi && gear < params_.slowest_gear) {
      ++gear;  // Plenty of slack: step down.
    } else if (blocked_share < params_.lo && gear > 0) {
      --gear;  // Became the bottleneck: step back up.
    }
    comm_gears_[r] = gear;
  }
  w.start = now;
  w.blocked = Seconds{};
  w.intervals = 0;
}

}  // namespace gearsim::policy
