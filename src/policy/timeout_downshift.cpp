#include "policy/timeout_downshift.hpp"

#include "cluster/workload.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace gearsim::policy {

TimeoutDownshift::TimeoutDownshift(Params params, int nprocs)
    : RuntimeController(params.compute_gear),
      params_(params),
      predictor_(params.alpha) {
  GEARSIM_REQUIRE(params_.park_gear >= params_.compute_gear,
                  "park gear should be no faster than the compute gear");
  GEARSIM_REQUIRE(params_.timeout.value() >= 0.0, "negative timeout");
  begin_run(nprocs);
}

std::string TimeoutDownshift::signature() const {
  return "timeout-downshift{compute=" + std::to_string(params_.compute_gear) +
         ",park=" + std::to_string(params_.park_gear) +
         ",timeout=" + cluster::sig_value(params_.timeout.value()) +
         ",alpha=" + cluster::sig_value(params_.alpha) + "}";
}

void TimeoutDownshift::reset(int nprocs) {
  predictor_.reset(nprocs);
  parks_ = 0;
}

void TimeoutDownshift::publish(obs::MetricsRegistry& metrics) const {
  metrics.counter("policy.predictive_parks").add(parks_);
}

void TimeoutDownshift::observe_blocking_enter(int rank, mpi::CallType type,
                                              Bytes bytes, Seconds) {
  const double predicted = predictor_.predict(rank, type, bytes);
  const bool park = predicted > params_.timeout.value();
  comm_gears_[static_cast<std::size_t>(rank)] =
      park ? params_.park_gear : params_.compute_gear;
  if (park) ++parks_;
}

void TimeoutDownshift::observe_blocking_exit(int rank, mpi::CallType type,
                                             Bytes bytes, Seconds,
                                             Seconds waited) {
  predictor_.observe(rank, type, bytes, waited);
}

}  // namespace gearsim::policy
