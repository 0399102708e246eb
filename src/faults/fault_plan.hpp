// FaultPlan: a seeded, declarative schedule of injected faults.
//
// The paper measures a healthy 10-node cluster; production clusters are
// not healthy.  A FaultPlan describes everything that goes wrong during
// one run — node crashes, straggler/thermal-throttle windows, degraded
// links, meter dropouts — plus an optional checkpoint/restart policy, as
// plain data.  The FaultInjector (injector.hpp) realizes the plan against
// a run; restart_model.hpp supplies the checkpoint/restart arithmetic.
//
// Determinism contract: a FaultPlan is pure data plus one seed.  The same
// plan produces bit-identical runs; an *empty* plan produces runs
// bit-identical to ones that never saw the fault layer at all (no RNG
// draw, no extra floating-point operation happens on the fault-free
// path).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/network.hpp"
#include "util/units.hpp"

namespace gearsim::faults {

/// Rank `node` dies at absolute run time `at`.
struct CrashEvent {
  std::size_t node = 0;
  Seconds at{};
};

/// A node's effective gear is silently capped (thermal throttle, shared
/// tenant, failing fan): compute blocks issued inside the window execute
/// at a gear no faster than `min_gear_index` (higher index = slower).
struct StragglerWindow {
  std::size_t node = 0;
  Seconds from{};
  Seconds until{};
  std::size_t min_gear_index = 0;
};

/// The sampling multimeter on `node` loses samples in [from, until).
struct MeterDropout {
  std::size_t node = 0;
  Seconds from{};
  Seconds until{};
};

/// Coordinated checkpoint/restart policy (BLCR-style, whole-job).
struct CheckpointConfig {
  /// Work time between checkpoints; <= 0 means no intermediate
  /// checkpoints (a crash restarts the job from scratch).
  Seconds interval = seconds(60.0);
  /// Stall while the coordinated checkpoint is written.
  Seconds write_time = seconds(1.0);
  /// Per-node draw during the write (disk + network, CPU near idle).
  Watts write_power = watts(120.0);
  /// Dead time to re-launch the job after a crash (failover, reboot,
  /// checkpoint read-back).
  Seconds restart_time = seconds(30.0);
  /// Per-node draw while the job re-launches.
  Watts restart_power = watts(85.0);
  /// Crashes beyond this many restarts fail the run.
  int max_restarts = 16;
};

class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

  // --- builders (chainable) ----------------------------------------------
  FaultPlan& crash(std::size_t node, Seconds at);
  FaultPlan& straggle(std::size_t node, Seconds from, Seconds until,
                      std::size_t min_gear_index);
  FaultPlan& degrade_link(net::LinkFaultWindow window);
  FaultPlan& drop_meter(std::size_t node, Seconds from, Seconds until);
  FaultPlan& with_checkpointing(CheckpointConfig config);
  /// Most crashes one random_crashes call may draw; past it the call
  /// throws ContractError instead of building an unbounded plan.
  static constexpr std::size_t kMaxRandomCrashes = 1'000'000;

  /// Draw crash times from independent per-node Poisson processes of rate
  /// `per_node_rate_hz` over [0, horizon), seeded by this plan's seed,
  /// and merge them after any earlier crash at the same time.  The
  /// horizon must be finite and comfortably exceed the run's
  /// (restart-inflated) wall time or late crashes are simply never
  /// realized.  Throws ContractError when more than kMaxRandomCrashes
  /// would be drawn.
  FaultPlan& random_crashes(double per_node_rate_hz, std::size_t nodes,
                            Seconds horizon);

  // --- accessors ----------------------------------------------------------
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  /// Crash events in time order.
  [[nodiscard]] const std::vector<CrashEvent>& crashes() const {
    return crashes_;
  }
  [[nodiscard]] const std::vector<StragglerWindow>& stragglers() const {
    return stragglers_;
  }
  [[nodiscard]] const std::vector<net::LinkFaultWindow>& link_faults() const {
    return link_faults_;
  }
  [[nodiscard]] const std::vector<MeterDropout>& meter_dropouts() const {
    return meter_dropouts_;
  }
  [[nodiscard]] const std::optional<CheckpointConfig>& checkpointing() const {
    return checkpoint_;
  }
  /// True when the plan schedules nothing and carries no restart policy.
  [[nodiscard]] bool empty() const {
    return crashes_.empty() && stragglers_.empty() && link_faults_.empty() &&
           meter_dropouts_.empty() && !checkpoint_.has_value();
  }

  /// Check every event against a concrete cluster (node indices, gear
  /// indices); throws ContractError on violations.  Link windows are
  /// validated by net::Network when installed.
  void validate(std::size_t nodes, std::size_t num_gears) const;

 private:
  std::uint64_t seed_ = 0x9e3779b97f4a7c15ULL;
  std::vector<CrashEvent> crashes_;
  std::vector<StragglerWindow> stragglers_;
  std::vector<net::LinkFaultWindow> link_faults_;
  std::vector<MeterDropout> meter_dropouts_;
  std::optional<CheckpointConfig> checkpoint_;
};

}  // namespace gearsim::faults
