// Shared state of one simulated MPI job: message matching, rank/process
// binding, observers.
//
// Matching follows the MPI standard: a receive with (source, tag) filters
// (wildcards allowed) matches the earliest-arrived compatible message in
// the unexpected queue; an arriving message matches the earliest-posted
// compatible receive.  Per-(source, destination) message order is
// preserved by the FIFO NIC model in net::Network.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "sim/engine.hpp"
#include "mpi/types.hpp"

namespace gearsim::mpi {

namespace detail {

struct SendState {
  bool matched = false;           ///< Receiver matched the message.
  sim::Process* waiter = nullptr; ///< Sender blocked awaiting the match.
};

struct Envelope {
  Rank src = 0;  ///< Communicator-local source rank.
  int tag = 0;
  Bytes bytes = 0;
  /// Communicator context: traffic only matches receives posted on the
  /// same communicator (MPI's context-id separation).
  int context = 0;
  /// Set for synchronous (rendezvous-class) sends: completing the match
  /// unblocks the sender.
  std::shared_ptr<SendState> send_state;
};

struct RecvState {
  Rank src_filter = kAnySource;
  int tag_filter = kAnyTag;
  int context = 0;
  bool complete = false;
  Status status{};
  sim::Process* waiter = nullptr;

  [[nodiscard]] bool matches(const Envelope& env) const {
    return !complete && env.context == context &&
           (src_filter == kAnySource || src_filter == env.src) &&
           (tag_filter == kAnyTag || tag_filter == env.tag);
  }
};

}  // namespace detail

class Comm;

/// One MPI job.  Construct, bind each rank to its simulation process, then
/// create one Comm per rank.  Lifetime must cover all Comms.
class World {
 public:
  World(sim::Engine& engine, net::Network& network, int size,
        MpiParams params = {});
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(procs_.size()); }
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] const MpiParams& params() const { return params_; }

  /// Associate `rank` with the process that executes it.  Must happen
  /// before the rank's first MPI call.
  void bind_rank(Rank rank, sim::Process& proc);

  void add_observer(CallObserver* observer);

  /// Count of user-level (traced) MPI calls, for reports.
  [[nodiscard]] std::uint64_t traced_calls() const { return traced_calls_; }

  /// The simulation process executing `rank`; bound via bind_rank.
  [[nodiscard]] sim::Process& process(Rank rank);

 private:
  friend class Comm;

  /// Fresh communicator context id (world is 0).
  int allocate_context() { return ++last_context_; }

  /// Comm::split rendezvous: each participant deposits its (color, key)
  /// under a split id; after a barrier all entries are visible.
  struct SplitEntry {
    int color = 0;
    int key = 0;
  };
  void deposit_split(std::uint64_t split_id, Rank rank, SplitEntry entry) {
    split_table_[split_id][rank] = entry;
  }
  [[nodiscard]] std::map<Rank, SplitEntry> split_entries(
      std::uint64_t split_id) {
    return split_table_[split_id];
  }
  std::map<std::uint64_t, std::map<Rank, SplitEntry>> split_table_;

  /// All members of one split group must agree on the new context id;
  /// the first to ask allocates, the rest read it back.
  int context_for(std::uint64_t split_id, int color) {
    const auto key = std::make_pair(split_id, color);
    const auto it = split_contexts_.find(key);
    if (it != split_contexts_.end()) return it->second;
    const int ctx = allocate_context();
    split_contexts_.emplace(key, ctx);
    return ctx;
  }
  std::map<std::pair<std::uint64_t, int>, int> split_contexts_;
  void notify_enter(Rank rank, CallType t, Bytes bytes, Rank peer);
  void notify_exit(Rank rank, CallType t);

  /// Message arrival at `dst` (runs in engine context at arrival time).
  void deliver(Rank dst, detail::Envelope env);
  /// Post a receive; matches the unexpected queue first.
  void post_recv(Rank dst, const std::shared_ptr<detail::RecvState>& op);
  /// Complete `op` against `env`; a rendezvous sender's wake is appended
  /// to `wakes` (submitted by the caller in one batch, sender first).
  static void complete_recv(detail::RecvState& op, const detail::Envelope& env,
                            sim::EventBatch& wakes);

  sim::Engine& engine_;
  net::Network& network_;
  MpiParams params_;
  std::vector<sim::Process*> procs_;
  std::vector<std::deque<detail::Envelope>> unexpected_;
  std::vector<std::vector<std::shared_ptr<detail::RecvState>>> posted_;
  std::vector<CallObserver*> observers_;
  std::uint64_t traced_calls_ = 0;
  int last_context_ = 0;
  /// Reusable wake batch for the delivery path: one message completion
  /// can wake a rendezvous sender *and* the receiver — batching submits
  /// both with a single queue operation (sender first, preserving the
  /// historical dispatch order).  Safe as a member: delivery runs in
  /// engine context, one event at a time, and drains it before returning.
  sim::EventBatch wake_batch_;
};

}  // namespace gearsim::mpi
