// Blocked-share feedback: the naive online controller.
//
// The dynamic form of the paper's future work #2, and the ancestor of
// the Jitter/Adagio runtimes: each rank tracks the fraction of recent
// wall time it spent blocked in MPI, and steps its gear down when the
// blocked share stays above `hi` (it has slack to burn) or back up when
// it falls below `lo` (it has become the bottleneck).  Decisions are per
// rank and per observation window, so different ranks converge to
// different gears on imbalanced runs.  A rank parks at the gear it
// computes at: every step moves both of its gears.
//
// Kept as the baseline the other controllers improve on: its absolute
// blocked-share feedback cannot distinguish "I have slack" from
// "everyone is waiting together" (the SP/BT pathology documented in
// bench/ablation_gear_policies; SlackReclaimer budgets in seconds
// instead).
#pragma once

#include <string>
#include <vector>

#include "policy/controller.hpp"

namespace gearsim::policy {

class SlackAdaptive final : public RuntimeController {
 public:
  struct Params {
    std::size_t initial_gear = 0;
    /// Blocked-share thresholds for stepping down / up.
    double hi = 0.25;
    double lo = 0.05;
    /// Blocking intervals per observation window.
    int window = 16;
    /// Never shift slower than this gear (0-based).
    std::size_t slowest_gear = 5;
  };

  SlackAdaptive(Params params, int nprocs);

  [[nodiscard]] std::string name() const override { return "slack-adaptive"; }
  [[nodiscard]] std::string signature() const override;

 protected:
  void reset(int nprocs) override;
  void observe_blocking_enter(int rank, mpi::CallType type, Bytes bytes,
                              Seconds now) override;
  void observe_blocking_exit(int rank, mpi::CallType type, Bytes bytes,
                             Seconds now, Seconds waited) override;

 private:
  /// One rank's open observation window.
  struct Window {
    Seconds start{};
    Seconds blocked{};
    int intervals = 0;
    bool started = false;
  };

  Params params_;
  std::vector<Window> windows_;
};

}  // namespace gearsim::policy
