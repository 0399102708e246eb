// DVFS gear policies: the paper's future work, made runnable.
//
// The paper's measurements keep every node at one uniform gear.  Its
// conclusion sketches two automatic schemes, both of which this module
// implements so they can be compared against the uniform baseline:
//
//  * "node bottleneck" (future work #2): ranks that reach synchronization
//    points early can be scaled down with little or no performance
//    penalty — plan_node_bottleneck derives per-rank static gears from a
//    profile run's active-time imbalance;
//  * an MPI runtime that "automatically monitors executing programs and
//    reduces the energy gear appropriately" (future work #3) —
//    CommDownshift parks a rank at a low gear whenever it blocks in MPI
//    and restores the compute gear on exit, paying the DVFS transition
//    latency both ways (the naive ancestor of Jitter/Adagio-style
//    runtimes).
//
// The *adaptive online* controllers — the naive blocked-share
// SlackAdaptive, timeout-filtered downshift and per-iteration slack
// reclamation — live in src/policy/ (see docs/POLICIES.md); they plug
// into the same GearPolicy surface defined here.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/experiment.hpp"
#include "mpi/types.hpp"

namespace gearsim::cluster {

/// Gear selection for one run, consulted by the runner's DVFS driver.
///
/// Two kinds of implementation share this surface:
///  * *static* policies (UniformGear, PerRankGear, CommDownshift): no
///    per-run state, every method const — one instance may be shared by
///    concurrent runs;
///  * *runtime controllers* (policy::RuntimeController subclasses):
///    mutable per-rank state fed by the engine-time callbacks below.  A
///    controller instance serves ONE run at a time; the runner calls
///    begin_run() first, which must reset all per-run state (so reusing
///    an instance across sequential runs is deterministic).  Concurrent
///    runs need one instance each — exec::SweepRunner instantiates a
///    fresh controller per point through PolicyFactory.
class GearPolicy {
 public:
  virtual ~GearPolicy() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  /// Canonical identity: name plus EVERY parameter that can change the
  /// simulation, rendered at round-trip precision (use cluster::sig_value
  /// for doubles).  This is the policy half of an exec cache key — two
  /// policies with equal signatures must produce bit-identical runs.
  /// Defaults to name(); parameterized policies must override it.
  [[nodiscard]] virtual std::string signature() const { return name(); }
  /// Gear a rank computes at (0-based index, 0 = fastest).
  [[nodiscard]] virtual std::size_t compute_gear(int rank) const = 0;
  /// Gear a rank parks at while blocked in MPI; default: no shifting.
  [[nodiscard]] virtual std::size_t comm_gear(int rank) const {
    return compute_gear(rank);
  }
  /// True if comm_gear can differ from compute_gear (or the policy wants
  /// feedback) — tells the runner to install the MPI-observer driver.
  [[nodiscard]] virtual bool shifts_during_comm() const { return false; }

  /// Called once at the start of every run, before any gear query.
  /// Controllers reset all per-run state here; static policies may
  /// validate the rank count.  Default no-op.
  virtual void begin_run(int /*nprocs*/) {}

  /// Engine-time feedback: the runner's driver invokes these around every
  /// blocking MPI call when shifts_during_comm() is true.  `waited` on
  /// exit is the measured wall time spent inside the call (transition
  /// latency included, as a DVFS-aware MPI would observe).  Non-const:
  /// adaptive controllers accumulate their observations here; static
  /// policies keep the default no-ops and stay shareable.
  virtual void on_blocking_enter(int /*rank*/, mpi::CallType /*type*/,
                                 Bytes /*bytes*/, Seconds /*now*/) {}
  virtual void on_blocking_exit(int /*rank*/, mpi::CallType /*type*/,
                                Bytes /*bytes*/, Seconds /*now*/,
                                Seconds /*waited*/) {}

  /// Add this run's decision counts to `metrics` as sim-domain counters.
  /// The runner calls it once after a run that returns a result, when a
  /// registry is attached.  Default: nothing to publish.
  virtual void publish(obs::MetricsRegistry& /*metrics*/) const {}
};

/// Creates one fresh policy instance per run — how policies travel
/// through exec::SweepRunner, whose fan-out may execute many runs of the
/// same nominal policy concurrently.  `make` builds an instance sized for
/// `nprocs` ranks; the signature is taken once, at construction, from
/// make(1).  It doubles as the cache-key component (see
/// exec/cache_key.hpp), so every instance `make` builds must carry it.
class PolicyFactory {
 public:
  using Make = std::function<std::unique_ptr<GearPolicy>(int nprocs)>;

  explicit PolicyFactory(Make make);

  [[nodiscard]] const std::string& signature() const { return signature_; }
  /// Fresh instance sized for `nprocs` ranks.
  [[nodiscard]] std::unique_ptr<GearPolicy> instantiate(int nprocs) const {
    return make_(nprocs);
  }

 private:
  Make make_;
  std::string signature_;
};

/// The paper's measured configuration: every rank at one gear.
class UniformGear final : public GearPolicy {
 public:
  explicit UniformGear(std::size_t gear) : gear_(gear) {}
  [[nodiscard]] std::string name() const override {
    return "uniform(g" + std::to_string(gear_ + 1) + ")";
  }
  [[nodiscard]] std::string signature() const override {
    return "uniform{gear=" + std::to_string(gear_) + "}";
  }
  [[nodiscard]] std::size_t compute_gear(int) const override { return gear_; }

 private:
  std::size_t gear_;
};

/// Static per-rank gears (the output of the node-bottleneck planner).
class PerRankGear final : public GearPolicy {
 public:
  explicit PerRankGear(std::vector<std::size_t> gears);
  [[nodiscard]] std::string name() const override { return "per-rank"; }
  [[nodiscard]] std::string signature() const override;
  [[nodiscard]] std::size_t compute_gear(int rank) const override;
  [[nodiscard]] const std::vector<std::size_t>& gears() const { return gears_; }

 private:
  std::vector<std::size_t> gears_;
};

/// Downshift while blocked in MPI; compute at `compute_gear`.
class CommDownshift final : public GearPolicy {
 public:
  CommDownshift(std::size_t compute_gear, std::size_t comm_gear);
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string signature() const override;
  [[nodiscard]] std::size_t compute_gear(int) const override {
    return compute_;
  }
  [[nodiscard]] std::size_t comm_gear(int) const override { return comm_; }
  [[nodiscard]] bool shifts_during_comm() const override {
    return comm_ != compute_;
  }

 private:
  std::size_t compute_;
  std::size_t comm_;
};

/// Derive per-rank gears from a profile run (uniform fastest gear): a
/// rank whose active time is below the maximum has slack, and may run as
/// slow as `S <= active_max / active_rank` without delaying the critical
/// rank.  `gear_slowdowns` is the application's per-gear S_g ladder
/// (model::GearData slowdowns); `safety` in (0, 1] shrinks the usable
/// slack to absorb modeling error.
PerRankGear plan_node_bottleneck(const RunResult& profile,
                                 std::span<const double> gear_slowdowns,
                                 double safety = 1.0);

}  // namespace gearsim::cluster
