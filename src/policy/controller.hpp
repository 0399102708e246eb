// The adaptive-DVFS runtime substrate.
//
// The paper's conclusion asks for an MPI runtime that "automatically
// monitors executing programs and reduces the energy gear
// appropriately".  COUNTDOWN and the Jitter/Adagio line of work show
// what that takes in practice: per-rank mutable state, measured MPI wait
// durations (not just "a blocking call happened"), and application
// iteration boundaries.  RuntimeController packages exactly those three
// feeds on top of cluster::GearPolicy so concrete controllers
// (TimeoutDownshift, SlackReclaimer) only implement decision logic.
//
// Determinism: controllers are driven exclusively by engine-time
// callbacks on the simulated ranks, never by wall-clock or shared RNG,
// so a policy run remains a pure function of (config, workload, nodes,
// policy parameters) — cacheable and bit-identical across sweep job
// counts (one fresh instance per point via PolicyFactory).
#pragma once

#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "cluster/dvfs.hpp"
#include "trace/iteration.hpp"

namespace gearsim::policy {

/// Per-(rank, call signature) EWMA of measured MPI wait durations — the
/// oracle COUNTDOWN approximates with its timeout timer.  The simulator
/// cannot cleanly interrupt a rank mid-call (gear changes must run on
/// the rank's own process), so controllers *predict* each call's wait
/// from the history of identical calls and decide at entry; the first
/// sighting of a signature predicts "unknown" (negative) and controllers
/// stay optimistic, which matches COUNTDOWN's behavior of leaving calls
/// shorter than the timeout untouched.
class WaitPredictor {
 public:
  explicit WaitPredictor(double alpha = 0.5);

  /// Drop all history and size for `nprocs` ranks.
  void reset(int nprocs);
  /// Predicted wait in seconds for this call signature on this rank;
  /// negative when the signature has not been seen yet.
  [[nodiscard]] double predict(int rank, mpi::CallType type,
                               Bytes bytes) const;
  /// Fold a measured wait into the signature's EWMA.
  void observe(int rank, mpi::CallType type, Bytes bytes, Seconds waited);

 private:
  /// (call type, payload size) — std::map for deterministic iteration.
  using Key = std::pair<int, Bytes>;
  double alpha_;
  std::vector<std::map<Key, double>> ewma_;
};

/// Base class for online gear controllers: owns the per-rank compute and
/// comm gear vectors, clocks application iterations from the blocking
/// call stream (trace::IterationClock), and splits GearPolicy's raw
/// callbacks into the protected observe_*/on_iteration_end hooks
/// subclasses implement.  All per-run state resets in begin_run, so one
/// instance may serve sequential runs deterministically; concurrent runs
/// need one instance each (PolicyFactory).
class RuntimeController : public cluster::GearPolicy {
 public:
  [[nodiscard]] std::size_t compute_gear(int rank) const final;
  [[nodiscard]] std::size_t comm_gear(int rank) const final;
  [[nodiscard]] bool shifts_during_comm() const final { return true; }

  void begin_run(int nprocs) final;
  void on_blocking_enter(int rank, mpi::CallType type, Bytes bytes,
                         Seconds now) final;
  void on_blocking_exit(int rank, mpi::CallType type, Bytes bytes,
                        Seconds now, Seconds waited) final;

  /// Per-rank compute gears at the end of the run (for reports/tests).
  [[nodiscard]] std::vector<std::size_t> final_gears() const {
    return compute_gears_;
  }
  /// Iterations the rank's clock has closed so far.
  [[nodiscard]] std::size_t iterations(int rank) const;

 protected:
  explicit RuntimeController(std::size_t initial_gear);

  /// Reset subclass per-run state; compute/comm gear vectors are already
  /// sized and filled with the initial gear when this runs.
  virtual void reset(int nprocs) = 0;
  /// A blocking call is being entered; runs *before* the driver queries
  /// comm_gear, so this is where per-call park decisions land (write
  /// comm_gears_[rank]).
  virtual void observe_blocking_enter(int /*rank*/, mpi::CallType /*type*/,
                                      Bytes /*bytes*/, Seconds /*now*/) {}
  /// A blocking call completed after `waited` seconds of wall time.
  virtual void observe_blocking_exit(int /*rank*/, mpi::CallType /*type*/,
                                     Bytes /*bytes*/, Seconds /*now*/,
                                     Seconds /*waited*/) {}
  /// The rank's anchor collective recurred: one outer iteration closed
  /// at `now` (fires before observe_blocking_enter for the same call).
  virtual void on_iteration_end(int /*rank*/, Seconds /*now*/) {}

  /// Per-rank gears the controller steers.  comm_gears_ is what a rank
  /// parks at inside blocking calls; keep it in sync with compute_gears_
  /// unless a park decision says otherwise.
  std::vector<std::size_t> compute_gears_;
  std::vector<std::size_t> comm_gears_;

 private:
  std::size_t initial_gear_;
  std::vector<trace::IterationClock> clocks_;
};

}  // namespace gearsim::policy
