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
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "sim/engine.hpp"
#include "mpi/types.hpp"

namespace gearsim::mpi {

namespace detail {

class OpPool;

/// Completion state of a pending receive or rendezvous send, shared by
/// its Request handles, the World's posted-receive list and the message
/// envelope in flight.  Slots come from the World's OpPool and return to
/// it when the last OpRef drops.  Reference counts are plain integers:
/// one World runs on one engine thread.
struct OpState {
  // Receive filters (unused by a send).
  Rank src_filter = kAnySource;
  int tag_filter = kAnyTag;
  int context = 0;
  /// A receive matched a message, or the receiver matched a send.
  bool complete = false;
  Status status{};                ///< Receives only.
  sim::Process* waiter = nullptr; ///< Rank blocked awaiting completion.
  std::uint32_t refs = 0;
  OpPool* pool = nullptr;
  OpState* next_free = nullptr;
};

/// Counted handle to a pooled OpState.
class OpRef {
 public:
  OpRef() = default;
  explicit OpRef(OpState* state) : state_(state) {
    if (state_ != nullptr) ++state_->refs;
  }
  OpRef(const OpRef& other) : OpRef(other.state_) {}
  OpRef(OpRef&& other) noexcept : state_(std::exchange(other.state_, nullptr)) {}
  OpRef& operator=(OpRef other) noexcept {
    std::swap(state_, other.state_);
    return *this;
  }
  ~OpRef();

  [[nodiscard]] explicit operator bool() const { return state_ != nullptr; }
  [[nodiscard]] OpState* get() const { return state_; }
  [[nodiscard]] OpState* operator->() const { return state_; }
  [[nodiscard]] OpState& operator*() const { return *state_; }

 private:
  OpState* state_ = nullptr;
};

/// Free list of OpState slots.  Slots live in a deque, so their addresses
/// are stable and a run that has reached its peak number of pending
/// operations allocates no more.
class OpPool {
 public:
  OpPool() = default;
  OpPool(const OpPool&) = delete;
  OpPool& operator=(const OpPool&) = delete;

  [[nodiscard]] OpRef acquire() {
    OpState* state = free_;
    if (state != nullptr) {
      free_ = state->next_free;
      *state = OpState{};
    } else {
      state = &slots_.emplace_back();
    }
    state->pool = this;
    return OpRef(state);
  }
  void release(OpState* state) {
    state->next_free = free_;
    free_ = state;
  }

 private:
  std::deque<OpState> slots_;
  OpState* free_ = nullptr;
};

inline OpRef::~OpRef() {
  if (state_ != nullptr && --state_->refs == 0) state_->pool->release(state_);
}

struct Envelope {
  Rank src = 0;  ///< Communicator-local source rank.
  int tag = 0;
  Bytes bytes = 0;
  /// Communicator context: traffic only matches receives posted on the
  /// same communicator (MPI's context-id separation).
  int context = 0;
  /// Set for synchronous (rendezvous-class) sends: completing the match
  /// unblocks the sender.
  OpRef send_state;
};

/// True when the pending receive `op` accepts `env`.
[[nodiscard]] inline bool matches(const OpState& op, const Envelope& env) {
  return !op.complete && env.context == op.context &&
         (op.src_filter == kAnySource || op.src_filter == env.src) &&
         (op.tag_filter == kAnyTag || op.tag_filter == env.tag);
}

}  // namespace detail

class Comm;

/// One MPI job.  Construct, bind each rank to its simulation process, then
/// create one Comm per rank.  Lifetime must cover all Comms and Requests:
/// if a run ends with ranks still suspended in MPI calls (a deadlock, or a
/// rank body that threw), call Engine::terminate_processes() before the
/// World goes away, so their unwinding frames find it alive.
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

  /// A fresh pending-operation state from this World's pool.
  [[nodiscard]] detail::OpRef acquire_op() { return ops_.acquire(); }
  /// Message arrival at `dst` (runs in engine context at arrival time).
  void deliver(Rank dst, detail::Envelope&& env);
  /// Post a receive; matches the unexpected queue first.  A receive left
  /// posted keeps its state alive, so a dropped irecv still consumes its
  /// message.
  void post_recv(Rank dst, detail::OpRef op);
  /// Complete `op` against `env`, waking a rendezvous sender blocked on
  /// it; the caller wakes the receiver after, so the sender resumes first.
  static void complete_recv(detail::OpState& op, const detail::Envelope& env);

  sim::Engine& engine_;
  net::Network& network_;
  MpiParams params_;
  /// Declared before the queues that hold references into it.
  detail::OpPool ops_;
  std::vector<sim::Process*> procs_;
  /// Per-rank matching queues.  Vectors, not deques: erasing keeps the
  /// capacity, so steady-state matching never touches the allocator.
  std::vector<std::vector<detail::Envelope>> unexpected_;
  std::vector<std::vector<detail::OpRef>> posted_;
  std::vector<CallObserver*> observers_;
  std::uint64_t traced_calls_ = 0;
  int last_context_ = 0;
};

}  // namespace gearsim::mpi
