// Jitter/Adagio-style per-iteration slack reclamation.
//
// The observation behind Jitter, Adagio and COUNTDOWN Slack: in an
// iterative MPI code, a rank that waits at the iteration's
// synchronization points has slack — it could compute slower and arrive
// just in time, saving energy without stretching the critical path.
// SlackReclaimer measures each rank's blocked time per application
// iteration (clocked by the recurring anchor collective,
// trace/iteration.hpp) and steers that rank's compute gear so the extra
// active time fits inside the measured slack, subject to a global
// performance-loss budget.  The rank with (almost) no slack — the
// critical path — is pinned at the fastest gear.
//
// Where the naive SlackAdaptive (policy/slack_adaptive.hpp) reacts to
// the *share* of time spent blocked (and so mistakes lockstep waiting
// for slack),
// SlackReclaimer budgets in absolute seconds against the gear ladder:
// a gear is only taken when `extra active time <= safety * measured
// slack`, so symmetric codes where everyone waits together stay fast.
//
// Upshift is immediate (a rank that lost its slack snaps back to gear
// 0); downshift waits for `hysteresis` consecutive iterations that agree
// (taking the most conservative of their targets), so one noisy
// iteration cannot park a rank.
//
// Slack is measured during warmup only: the first `hysteresis`
// iterations necessarily run at the initial gear (no downshift can fire
// before the votes accumulate), so their mean span and mean blocked time
// are true gear-0 measurements, frozen as the rank's reference.  Judging
// slack (or the budget) against *live* measurements would compare
// against a baseline the controller itself moved — in lockstep codes
// each downshift hands its neighbors more "slack", they downshift too,
// and the ratchet only stops at the slowest gear.  Live spans still
// guard the result: a rank whose iteration runs over budget versus its
// frozen reference backs off a gear immediately AND caps its depth
// there, so transitively-coupled slack (this rank's wait was really
// another rank's) is surrendered once and never re-taken.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "policy/controller.hpp"

namespace gearsim::policy {

class SlackReclaimer final : public RuntimeController {
 public:
  struct Params {
    /// Per-gear application slowdown ladder S_g (index = gear, S_0 = 1,
    /// non-decreasing) — how much longer the workload's compute runs at
    /// each gear.  Measure it from a static gear sweep
    /// (policy::slowdown_ladder) or model::GearData.
    std::vector<double> gear_slowdowns;
    /// Max fractional iteration-time stretch the controller may cause.
    double perf_budget = 0.05;
    /// Consecutive agreeing iterations before a downshift.
    int hysteresis = 2;
    /// Fraction of measured slack the controller dares to consume.
    double safety = 0.9;
    /// Ranks blocked less than this fraction of the iteration are the
    /// critical path: pinned at gear 0.
    double pin_threshold = 0.02;
    /// Also park long blocking calls at the slowest gear (predictor-
    /// gated, same mechanism as TimeoutDownshift).
    bool park_while_blocked = true;
    Seconds park_timeout = microseconds(500.0);
    /// EWMA smoothing for the wait predictor, in (0, 1].
    double alpha = 0.5;
  };

  SlackReclaimer(Params params, int nprocs);

  [[nodiscard]] std::string name() const override { return "slack-reclaimer"; }
  [[nodiscard]] std::string signature() const override;
  void publish(obs::MetricsRegistry& metrics) const override;

 protected:
  void reset(int nprocs) override;
  void observe_blocking_enter(int rank, mpi::CallType type, Bytes bytes,
                              Seconds now) override;
  void observe_blocking_exit(int rank, mpi::CallType type, Bytes bytes,
                             Seconds now, Seconds waited) override;
  void on_iteration_end(int rank, Seconds now) override;

 private:
  struct RankState {
    Seconds iter_start{};
    Seconds blocked{};
    /// Consecutive iterations that asked to shift down.
    int down_votes = 0;
    /// Most conservative (fastest) target among those iterations.
    std::size_t down_target = 0;
    /// Gear-0 iterations measured so far; the references freeze once
    /// `hysteresis` of them have been averaged (no downshift can happen
    /// earlier, so they are all genuinely at the initial gear).
    int warmup = 0;
    double span_sum = 0.0;
    double blocked_sum = 0.0;
    /// Frozen gear-0 reference span [s]; the absolute budget anchor.
    double ref_span = 0.0;
    /// Frozen gear-0 reference blocked time [s]; the slack budget.
    double ref_blocked = 0.0;
    /// Depth ceiling, lowered (permanently) each time an iteration runs
    /// over budget at the current gear.
    std::size_t gear_cap = static_cast<std::size_t>(-1);
  };

  Params params_;
  WaitPredictor predictor_;
  std::vector<RankState> state_;
  // This run's decision counts, zeroed in reset().
  std::uint64_t parks_ = 0;
  std::uint64_t votes_ = 0;
  std::uint64_t downshifts_ = 0;
  std::uint64_t upshifts_ = 0;
  std::uint64_t backoffs_ = 0;
};

}  // namespace gearsim::policy
