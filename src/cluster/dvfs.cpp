#include "cluster/dvfs.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace gearsim::cluster {

PolicyFactory::PolicyFactory(Make make) : make_(std::move(make)) {
  GEARSIM_REQUIRE(static_cast<bool>(make_), "policy factory needs a maker");
  signature_ = make_(1)->signature();
}

PerRankGear::PerRankGear(std::vector<std::size_t> gears)
    : gears_(std::move(gears)) {
  GEARSIM_REQUIRE(!gears_.empty(), "per-rank policy needs at least one gear");
}

std::string PerRankGear::signature() const {
  std::string sig = "per-rank{gears=";
  for (std::size_t i = 0; i < gears_.size(); ++i) {
    if (i > 0) sig += ',';
    sig += std::to_string(gears_[i]);
  }
  return sig + "}";
}

std::size_t PerRankGear::compute_gear(int rank) const {
  GEARSIM_REQUIRE(rank >= 0 && static_cast<std::size_t>(rank) < gears_.size(),
                  "rank outside the planned assignment");
  return gears_[rank];
}

CommDownshift::CommDownshift(std::size_t compute_gear, std::size_t comm_gear)
    : compute_(compute_gear), comm_(comm_gear) {
  GEARSIM_REQUIRE(comm_ >= compute_,
                  "comm gear should be no faster than the compute gear");
}

std::string CommDownshift::name() const {
  return "comm-downshift(g" + std::to_string(compute_ + 1) + "->g" +
         std::to_string(comm_ + 1) + ")";
}

std::string CommDownshift::signature() const {
  return "comm-downshift{compute=" + std::to_string(compute_) +
         ",comm=" + std::to_string(comm_) + "}";
}

PerRankGear plan_node_bottleneck(const RunResult& profile,
                                 std::span<const double> gear_slowdowns,
                                 double safety) {
  GEARSIM_REQUIRE(!gear_slowdowns.empty(), "need the per-gear slowdown ladder");
  GEARSIM_REQUIRE(safety > 0.0 && safety <= 1.0, "safety must be in (0, 1]");
  GEARSIM_REQUIRE(!profile.breakdown.ranks.empty(), "profile has no ranks");
  for (std::size_t g = 1; g < gear_slowdowns.size(); ++g) {
    GEARSIM_REQUIRE(gear_slowdowns[g] >= gear_slowdowns[g - 1],
                    "slowdown ladder must be non-decreasing");
  }

  const Seconds active_max = profile.breakdown.active_max;
  std::vector<std::size_t> gears;
  gears.reserve(profile.breakdown.ranks.size());
  for (const auto& rank : profile.breakdown.ranks) {
    // Allowable slowdown: stretch this rank's active time at most up to
    // the (safety-scaled) critical rank's active time.
    double budget = 1.0;
    if (rank.active.value() > 0.0) {
      budget = 1.0 + safety * ((active_max / rank.active) - 1.0);
    }
    std::size_t chosen = 0;
    for (std::size_t g = 0; g < gear_slowdowns.size(); ++g) {
      if (gear_slowdowns[g] <= budget) chosen = g;
    }
    gears.push_back(chosen);
  }
  return PerRankGear(std::move(gears));
}

}  // namespace gearsim::cluster
