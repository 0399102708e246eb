#include "mpi/world.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace gearsim::mpi {

const char* to_string(CallType t) {
  switch (t) {
    case CallType::kSend: return "Send";
    case CallType::kRecv: return "Recv";
    case CallType::kIsend: return "Isend";
    case CallType::kIrecv: return "Irecv";
    case CallType::kWait: return "Wait";
    case CallType::kWaitall: return "Waitall";
    case CallType::kSendrecv: return "Sendrecv";
    case CallType::kBarrier: return "Barrier";
    case CallType::kBcast: return "Bcast";
    case CallType::kReduce: return "Reduce";
    case CallType::kAllreduce: return "Allreduce";
    case CallType::kAlltoall: return "Alltoall";
    case CallType::kAllgather: return "Allgather";
    case CallType::kGather: return "Gather";
    case CallType::kScatter: return "Scatter";
    case CallType::kReduceScatter: return "Reduce_scatter";
    case CallType::kScan: return "Scan";
    case CallType::kCommSplit: return "Comm_split";
  }
  return "?";
}

bool is_collective(CallType t) {
  switch (t) {
    case CallType::kBarrier:
    case CallType::kBcast:
    case CallType::kReduce:
    case CallType::kAllreduce:
    case CallType::kAlltoall:
    case CallType::kAllgather:
    case CallType::kGather:
    case CallType::kScatter:
    case CallType::kReduceScatter:
    case CallType::kScan:
    case CallType::kCommSplit:
      return true;
    case CallType::kSend:
    case CallType::kRecv:
    case CallType::kIsend:
    case CallType::kIrecv:
    case CallType::kWait:
    case CallType::kWaitall:
    case CallType::kSendrecv:
      return false;
  }
  return false;
}

bool is_blocking_point(CallType t) {
  switch (t) {
    case CallType::kRecv:
    case CallType::kWait:
    case CallType::kWaitall:
    case CallType::kSendrecv:
    case CallType::kBarrier:
    case CallType::kBcast:
    case CallType::kReduce:
    case CallType::kAllreduce:
    case CallType::kAlltoall:
    case CallType::kAllgather:
    case CallType::kGather:
    case CallType::kScatter:
    case CallType::kReduceScatter:
    case CallType::kScan:
    case CallType::kCommSplit:
      return true;
    case CallType::kSend:  // "We assume that the send is asynchronous":
                           // eager sends complete locally.  (A rendezvous
                           // send can block, but following the paper the
                           // analysis treats sends as window-openers.)
    case CallType::kIsend:
    case CallType::kIrecv:
      return false;
  }
  return false;
}

World::World(sim::Engine& engine, net::Network& network, int size,
             MpiParams params)
    : engine_(engine),
      network_(network),
      params_(params),
      procs_(static_cast<std::size_t>(size), nullptr),
      unexpected_(static_cast<std::size_t>(size)),
      posted_(static_cast<std::size_t>(size)) {
  GEARSIM_REQUIRE(size >= 1, "world size must be at least 1");
  GEARSIM_REQUIRE(network.num_nodes() >= static_cast<std::size_t>(size),
                  "network smaller than the MPI world");
}

void World::bind_rank(Rank rank, sim::Process& proc) {
  GEARSIM_REQUIRE(rank >= 0 && rank < size(), "rank out of range");
  GEARSIM_REQUIRE(procs_[rank] == nullptr, "rank already bound");
  procs_[rank] = &proc;
}

void World::add_observer(CallObserver* observer) {
  GEARSIM_REQUIRE(observer != nullptr, "null observer");
  observers_.push_back(observer);
}

sim::Process& World::process(Rank rank) {
  GEARSIM_REQUIRE(rank >= 0 && rank < size(), "rank out of range");
  GEARSIM_REQUIRE(procs_[rank] != nullptr, "rank not bound to a process");
  return *procs_[rank];
}

void World::notify_enter(Rank rank, CallType t, Bytes bytes, Rank peer) {
  ++traced_calls_;
  const Seconds now = engine_.now();
  for (auto* obs : observers_) obs->on_enter(rank, t, now, bytes, peer);
}

void World::notify_exit(Rank rank, CallType t) {
  const Seconds now = engine_.now();
  for (auto* obs : observers_) obs->on_exit(rank, t, now);
}

void World::complete_recv(detail::OpState& op, const detail::Envelope& env) {
  op.complete = true;
  op.status = Status{env.src, env.tag, env.bytes};
  detail::OpState* sender = env.send_state.get();
  if (sender != nullptr && !sender->complete) {
    sender->complete = true;
    if (sender->waiter != nullptr) sender->waiter->wake();
  }
}

void World::deliver(Rank dst, detail::Envelope&& env) {
  GEARSIM_REQUIRE(dst >= 0 && dst < size(), "deliver to invalid rank");
  auto& posted = posted_[dst];
  const auto it = std::find_if(
      posted.begin(), posted.end(),
      [&env](const detail::OpRef& op) { return detail::matches(*op, env); });
  if (it == posted.end()) {
    unexpected_[dst].push_back(std::move(env));
    return;
  }
  const detail::OpRef op = std::move(*it);
  posted.erase(it);
  // A rendezvous sender's wake (from complete_recv) is queued before the
  // receiver's, so the sender resumes first.
  complete_recv(*op, env);
  if (op->waiter != nullptr) op->waiter->wake();
}

void World::post_recv(Rank dst, detail::OpRef op) {
  auto& queue = unexpected_[dst];
  const auto it = std::find_if(queue.begin(), queue.end(),
                               [&op](const detail::Envelope& env) {
                                 return detail::matches(*op, env);
                               });
  if (it != queue.end()) {
    complete_recv(*op, *it);
    queue.erase(it);
    return;
  }
  posted_[dst].push_back(std::move(op));
}

}  // namespace gearsim::mpi
