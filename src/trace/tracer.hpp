// MPI call tracing: the paper's instrumentation substrate.
//
// "This instrumentation intercepts all relevant MPI calls, and writes a
// timestamp to a log file. ... To reduce perturbation, each trace record
// is written to a local buffer."  The Tracer is a mpi::CallObserver that
// appends (rank, call, enter, exit, bytes, peer) records to per-rank
// vectors: the record store behind the CSV and timeline exports.  A run's
// T^A / T^I and T^C / T^R decompositions (Sections 3-4) fold online in
// trace::BreakdownObserver with no stored records; analysis.hpp replays a
// stored trace through the same fold.
#pragma once

#include <cstddef>
#include <vector>

#include "mpi/types.hpp"
#include "util/assert.hpp"
#include "util/units.hpp"

namespace gearsim::trace {

struct TraceRecord {
  mpi::CallType type{};
  Seconds enter{};
  Seconds exit{};
  Bytes bytes = 0;
  mpi::Rank peer = mpi::kAnySource;

  [[nodiscard]] Seconds duration() const { return exit - enter; }
};

class Tracer final : public mpi::CallObserver {
 public:
  explicit Tracer(std::size_t num_ranks);

  void on_enter(mpi::Rank rank, mpi::CallType type, Seconds now, Bytes bytes,
                mpi::Rank peer) override;
  void on_exit(mpi::Rank rank, mpi::CallType type, Seconds now) override;

  [[nodiscard]] std::size_t num_ranks() const { return buffers_.size(); }
  [[nodiscard]] const std::vector<TraceRecord>& records(std::size_t rank) const;
  /// Total records across ranks.
  [[nodiscard]] std::size_t total_records() const;
  /// Count of records of one call type on one rank (for comm-pattern
  /// inspection, the paper's "dynamic measurement of number of each MPI
  /// call").
  [[nodiscard]] std::size_t count(std::size_t rank, mpi::CallType type) const;

  void clear();

 private:
  std::vector<std::vector<TraceRecord>> buffers_;
  std::vector<std::size_t> open_;  ///< Index of the unfinished record; npos if none.
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
};

}  // namespace gearsim::trace
