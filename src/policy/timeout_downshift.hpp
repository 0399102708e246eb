// COUNTDOWN-style timeout-filtered downshift.
//
// The naive cluster::CommDownshift parks the CPU on *every* blocking
// call and pays the DVFS transition latency twice per call — on codes
// with many short collectives the transitions cost more than the parked
// idle power saves.  COUNTDOWN's fix is a timeout: only calls that
// outlive it are worth downshifting for.  The simulator cannot interrupt
// a rank mid-call, so the timeout is applied *predictively*: a
// WaitPredictor tracks the measured wait of every (call type, bytes)
// signature per rank, and the controller parks only when the predicted
// wait exceeds the timeout.  The first occurrence of a signature never
// parks (prediction unknown — optimistic, exactly like COUNTDOWN leaving
// sub-timeout calls untouched).
#pragma once

#include <cstdint>
#include <string>

#include "policy/controller.hpp"

namespace gearsim::policy {

class TimeoutDownshift final : public RuntimeController {
 public:
  struct Params {
    /// Gear ranks compute at (the controller never changes it).
    std::size_t compute_gear = 0;
    /// Gear ranks park at inside long blocking calls.
    std::size_t park_gear = 5;
    /// Park only when the predicted wait exceeds this.  The default is
    /// several times the athlon gear-switch latency (100us), so a park
    /// always saves more idle time than the two transitions it costs.
    Seconds timeout = microseconds(500.0);
    /// EWMA smoothing for the wait predictor, in (0, 1].
    double alpha = 0.5;
  };

  TimeoutDownshift(Params params, int nprocs);

  [[nodiscard]] std::string name() const override {
    return "timeout-downshift";
  }
  [[nodiscard]] std::string signature() const override;
  void publish(obs::MetricsRegistry& metrics) const override;

 protected:
  void reset(int nprocs) override;
  void observe_blocking_enter(int rank, mpi::CallType type, Bytes bytes,
                              Seconds now) override;
  void observe_blocking_exit(int rank, mpi::CallType type, Bytes bytes,
                             Seconds now, Seconds waited) override;

 private:
  Params params_;
  WaitPredictor predictor_;
  std::uint64_t parks_ = 0;  ///< This run's parks, zeroed in reset().
};

}  // namespace gearsim::policy
