// The paper's time decompositions of a run's MPI calls.
//
// Step 1 of the methodology: split each rank's run into active time T^A
// (outside MPI) and idle time T^I (inside blocking MPI calls, which
// *includes* actual communication time).  The cluster-level T^A(n) is the
// MAXIMUM active time over ranks, per the paper; the cluster T^I(n) is
// then wall - T^A(n) so that T = T^A + T^I holds.
//
// The refined model further splits T^A into critical work T^C and
// reducible work T^R: "the post-processing analysis conservatively
// determines the reducible work to be computation between the last send
// and a blocking point" — work that can be slowed without delaying any
// other node, because no data leaves the node in that window.
#pragma once

#include <span>
#include <vector>

#include "trace/tracer.hpp"

namespace gearsim::trace {

/// Per-rank decomposition of one run.
struct RankBreakdown {
  Seconds wall{};       ///< Run end - run start.
  Seconds active{};     ///< T^A: time outside MPI.
  Seconds idle{};       ///< T^I: time inside MPI calls.
  Seconds critical{};   ///< T^C: active work on the communication path.
  Seconds reducible{};  ///< T^R: active work with downstream slack.
  std::size_t mpi_calls = 0;

  friend bool operator==(const RankBreakdown&, const RankBreakdown&) = default;
};

/// Whole-run decomposition in the paper's terms.
struct ClusterBreakdown {
  Seconds wall{};         ///< Execution time T(n).
  Seconds active_max{};   ///< T^A(n): max over ranks.
  Seconds idle_derived{}; ///< T^I(n) = wall - active_max.
  Seconds active_mean{};  ///< Mean rank active time (load-balance view).
  Seconds idle_mean{};    ///< Mean rank idle time.
  Seconds critical{};     ///< T^C of the max-active rank.
  Seconds reducible{};    ///< T^R of the max-active rank.
  std::vector<RankBreakdown> ranks;

  friend bool operator==(const ClusterBreakdown&,
                         const ClusterBreakdown&) = default;
};

/// One rank's decomposition, folded one call at a time.
class RankFold {
 public:
  explicit RankFold(Seconds run_start = Seconds{})
      : run_start_(run_start), prev_exit_(run_start) {}

  /// Fold one call that ran over [enter, exit].  Calls arrive in the
  /// rank's program order.
  void add(mpi::CallType type, Seconds enter, Seconds exit);

  /// The decomposition over [run_start, run_end].
  [[nodiscard]] RankBreakdown finish(Seconds run_end) const;

 private:
  Seconds run_start_;
  Seconds idle_{};
  Seconds reducible_{};
  // Reducible-work scan state: are we past a send with no intervening
  // blocking point, and how much computation accumulated since that send?
  bool send_open_ = false;
  Seconds since_send_{};
  Seconds prev_exit_;
  std::size_t calls_ = 0;
};

/// Decompose one rank's records over [run_start, run_end].
RankBreakdown analyze_rank(std::span<const TraceRecord> records,
                           Seconds run_start, Seconds run_end);

/// Decompose a full run from its tracer.
ClusterBreakdown analyze_cluster(const Tracer& tracer, Seconds run_start,
                                 Seconds run_end);

/// The online feeder: a CallObserver that folds each call into its rank's
/// RankFold as the call exits, keeping one open call per rank and no
/// records.  Runs start at t = 0.  breakdown() equals analyze_cluster over
/// a Tracer attached to the same World.
class BreakdownObserver final : public mpi::CallObserver {
 public:
  explicit BreakdownObserver(std::size_t num_ranks);

  void on_enter(mpi::Rank rank, mpi::CallType type, Seconds now, Bytes bytes,
                mpi::Rank peer) override;
  void on_exit(mpi::Rank rank, mpi::CallType type, Seconds now) override;

  /// The run's decomposition over [0, run_end].  A call still open counts
  /// as one that exited at its entry, as its Tracer record would.
  [[nodiscard]] ClusterBreakdown breakdown(Seconds run_end) const;

 private:
  struct OpenCall {
    bool open = false;
    mpi::CallType type{};
    Seconds enter{};
  };

  std::vector<RankFold> folds_;
  std::vector<OpenCall> open_;
};

}  // namespace gearsim::trace
