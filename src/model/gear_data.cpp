#include "model/gear_data.hpp"

#include "cpu/power_model.hpp"
#include "util/assert.hpp"

namespace gearsim::model {

const GearPoint& GearData::at(std::size_t gear_index) const {
  GEARSIM_REQUIRE(gear_index < gears.size(), "gear index out of range");
  return gears[gear_index];
}

GearData measure_gear_data(cluster::ExperimentRunner& runner,
                           const cluster::Workload& workload) {
  GEARSIM_REQUIRE(workload.supports(1),
                  "gear characterization requires a 1-node run");
  const cpu::PowerModel power_model(runner.config().power,
                                    runner.config().gears);
  GearData data;
  // One 1-node run per gear, run serially in gear order.
  const std::vector<cluster::RunResult> runs = runner.gear_sweep(workload, 1);
  const Seconds t1 = runs.front().wall;
  for (std::size_t g = 0; g < runs.size(); ++g) {
    const cluster::RunResult& r = runs[g];
    GearPoint point;
    point.gear_label = r.gear_label;
    point.slowdown = r.wall / t1;
    point.active_power = r.mean_active_power;
    // The paper measures I_g on a quiescent system ("the same setup,
    // except this time with no application running").
    point.idle_power = power_model.idle_power(g);
    data.gears.push_back(point);
  }
  return data;
}

}  // namespace gearsim::model
