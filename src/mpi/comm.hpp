// Per-rank MPI handle: the API workload skeletons program against.
//
// Every public call is traced through the World's observers (entry/exit
// with simulated timestamps), which is how the tracing substrate and the
// power accountant see communication.  Collectives are implemented on top
// of the internal (untraced) point-to-point layer with textbook
// algorithms: dissemination barrier, binomial bcast/reduce, reduce+bcast
// allreduce, pairwise alltoall, ring allgather.
#pragma once

#include <span>
#include <vector>

#include "mpi/world.hpp"

namespace gearsim::mpi {

/// Handle for a nonblocking operation; value type, copyable (copies share
/// the operation).  Obtain from isend/irecv; complete with wait/waitall.
/// An eager send is complete when isend returns and carries no state; a
/// receive or a rendezvous send holds a counted reference to a slot of
/// its World's pool, so no handle may outlive the World.
class Request {
 public:
  Request() = default;
  [[nodiscard]] bool valid() const { return sent_ || static_cast<bool>(op_); }
  [[nodiscard]] bool done() const { return sent_ || (op_ && op_->complete); }

 private:
  friend class Comm;
  detail::OpRef op_;
  bool sent_ = false;  ///< An eager send, complete at the sender.
};

class Comm {
 public:
  /// Bind to `rank` of `world`; the rank's process must already be bound.
  Comm(World& world, Rank rank);

  [[nodiscard]] Rank rank() const { return rank_; }
  [[nodiscard]] int size() const {
    return group_.empty() ? world_.size() : static_cast<int>(group_.size());
  }
  [[nodiscard]] World& world() { return world_; }
  /// True for the world communicator (not a split).
  [[nodiscard]] bool is_world() const { return group_.empty(); }

  /// MPI_Comm_split: every rank of this communicator calls split with a
  /// color; ranks sharing a color form a new communicator, ordered by
  /// (key, old rank).  The returned Comm is only meaningful on the
  /// calling rank (as in MPI).  Collectives and point-to-point on the
  /// result address the subgroup's ranks 0..size()-1.
  [[nodiscard]] Comm split(int color, int key);

  /// Row/column communicators for a q x q process grid (BT/SP/CG layout).
  [[nodiscard]] Comm split_row(int grid_width) {
    return split(rank_ / grid_width, rank_ % grid_width);
  }
  [[nodiscard]] Comm split_col(int grid_width) {
    return split(rank_ % grid_width, rank_ / grid_width);
  }

  // --- point-to-point ----------------------------------------------------
  /// Blocking send.  Eager (<= eager_threshold) sends complete after local
  /// software overhead; larger sends are synchronous: the call returns
  /// only once the receiver has matched the message.
  void send(Rank dst, int tag, Bytes bytes);
  /// Blocking receive with optional wildcards (kAnySource / kAnyTag).
  Status recv(Rank src, int tag);
  Request isend(Rank dst, int tag, Bytes bytes);
  Request irecv(Rank src, int tag);
  Status wait(Request& request);
  void waitall(std::span<Request> requests);
  /// Combined send+recv (deadlock-free exchange with a neighbor).
  Status sendrecv(Rank dst, int send_tag, Bytes send_bytes, Rank src,
                  int recv_tag);

  // --- collectives ---------------------------------------------------------
  void barrier();
  void bcast(Rank root, Bytes bytes);
  void reduce(Rank root, Bytes bytes);
  void allreduce(Bytes bytes);
  /// `bytes_per_pair` flows between every ordered pair of distinct ranks.
  void alltoall(Bytes bytes_per_pair);
  /// Every rank contributes `bytes`; all ranks end with size()*bytes.
  void allgather(Bytes bytes);
  void gather(Rank root, Bytes bytes);
  void scatter(Rank root, Bytes bytes);
  /// Each rank ends with its `bytes`-sized share of the reduced vector
  /// (MPI_Reduce_scatter_block); pairwise-exchange algorithm.
  void reduce_scatter(Bytes bytes_per_rank);
  /// Inclusive prefix reduction (MPI_Scan); linear chain algorithm.
  void scan(Bytes bytes);

 private:
  struct Traced;  // RAII observer enter/exit.

  Comm(World& world, Rank world_rank, std::vector<Rank> group, Rank group_rank);

  [[nodiscard]] sim::Process& proc() { return world_.process(world_rank_); }
  void overhead();

  /// Translate a communicator-local rank to the world rank the matching
  /// and network layers use.  Identity for the world communicator.
  [[nodiscard]] Rank to_world(Rank local) const {
    return group_.empty() ? local : group_[local];
  }

  // Untraced internals shared by the public calls and the collectives.
  // Ranks are communicator-local.
  void send_impl(Rank dst, int tag, Bytes bytes);
  Request isend_impl(Rank dst, int tag, Bytes bytes);
  Status recv_impl(Rank src, int tag);
  Request irecv_impl(Rank src, int tag);
  Status wait_impl(Request& request);

  // Collective bodies (the public entry points add tracing).
  void barrier_impl();
  void bcast_impl(Rank root, Bytes bytes, int op_tag);
  void reduce_impl(Rank root, Bytes bytes, int op_tag);

  /// Distinct internal tag per collective instance: all ranks call the
  /// collectives in the same order (an MPI requirement), so a per-rank
  /// counter is globally consistent.
  int next_collective_tag();

  World& world_;
  Rank rank_;        ///< Communicator-local rank.
  Rank world_rank_;  ///< Rank in the world (process / network identity).
  std::vector<Rank> group_;  ///< Local -> world map; empty for the world.
  int context_ = 0;
  int collective_seq_ = 0;
  int split_seq_ = 0;
};

}  // namespace gearsim::mpi
