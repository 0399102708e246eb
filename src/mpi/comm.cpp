#include "mpi/comm.hpp"

#include "util/assert.hpp"

namespace gearsim::mpi {

namespace {
/// Each collective instance reserves a block of 64 internal (negative)
/// tags, one per algorithm round.
constexpr int kTagsPerCollective = 64;
}  // namespace

/// RAII guard emitting observer enter/exit around a traced call.
struct Comm::Traced {
  Traced(Comm& comm, CallType type, Bytes bytes, Rank peer)
      : comm_(comm), type_(type) {
    comm_.world_.notify_enter(comm_.rank_, type, bytes, peer);
  }
  // An exit hook may suspend the rank (a DVFS gear switch).  A rank
  // terminated while suspended there unwinds out of the call as from any
  // other suspension point, so the destructor must let that through.
  ~Traced() noexcept(false) { comm_.world_.notify_exit(comm_.rank_, type_); }
  Traced(const Traced&) = delete;
  Traced& operator=(const Traced&) = delete;

  Comm& comm_;
  CallType type_;
};

Comm::Comm(World& world, Rank rank)
    : world_(world), rank_(rank), world_rank_(rank) {
  GEARSIM_REQUIRE(rank >= 0 && rank < world.size(), "rank out of range");
}

Comm::Comm(World& world, Rank world_rank, std::vector<Rank> group,
           Rank group_rank)
    : world_(world),
      rank_(group_rank),
      world_rank_(world_rank),
      group_(std::move(group)),
      context_(0) {}

Comm Comm::split(int color, int key) {
  Traced guard(*this, CallType::kCommSplit, 0, kAnySource);
  GEARSIM_REQUIRE(color >= 0, "split colors must be non-negative");
  // Deposit this rank's (color, key), then synchronize: after the barrier
  // every participant's entry is visible and the groups can be computed
  // locally and deterministically.
  const std::uint64_t split_id =
      (static_cast<std::uint64_t>(context_) << 32) |
      static_cast<std::uint32_t>(split_seq_++);
  world_.deposit_split(split_id, rank_, World::SplitEntry{color, key});
  barrier_impl();

  const auto entries = world_.split_entries(split_id);
  GEARSIM_REQUIRE(entries.size() == static_cast<std::size_t>(size()),
                  "Comm::split must be called by every rank of the "
                  "communicator");
  struct Member {
    int key;
    Rank local;
  };
  std::vector<Member> members;
  for (const auto& [local, entry] : entries) {
    if (entry.color == color) members.push_back(Member{entry.key, local});
  }
  std::sort(members.begin(), members.end(),
            [](const Member& a, const Member& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.local < b.local;
            });
  std::vector<Rank> group;
  Rank my_group_rank = -1;
  for (const Member& m : members) {
    if (m.local == rank_) my_group_rank = static_cast<Rank>(group.size());
    group.push_back(to_world(m.local));
  }
  GEARSIM_ENSURE(my_group_rank >= 0, "caller missing from its own color");

  Comm sub(world_, world_rank_, std::move(group), my_group_rank);
  sub.context_ = world_.context_for(split_id, color);
  return sub;
}

void Comm::overhead() { proc().delay(world_.params().call_overhead); }

int Comm::next_collective_tag() {
  ++collective_seq_;
  return -collective_seq_ * kTagsPerCollective;
}

// --- internal point-to-point ------------------------------------------------

Request Comm::isend_impl(Rank dst, int tag, Bytes bytes) {
  GEARSIM_REQUIRE(dst >= 0 && dst < size(), "send to invalid rank");
  overhead();
  const Rank dst_world = to_world(dst);
  // Envelopes carry communicator-local source ranks plus the context id,
  // so sub-communicator traffic can never match another communicator's
  // receives.
  detail::Envelope env{rank_, tag, bytes, context_, {}};
  Request req;
  if (bytes > world_.params().eager_threshold) {
    req.op_ = world_.acquire_op();
    env.send_state = req.op_;
  } else {
    // Eager: complete at the sender immediately (buffered semantics).
    req.sent_ = true;
  }
  // NB: the delivery event may fire after this Comm (a per-rank value
  // inside the rank's context) is gone — capture the World, which outlives
  // the whole engine run.
  World* world = &world_;
  sim::Engine& engine = world_.engine();
  if (dst_world == world_rank_) {
    // Self-message: no network involvement; deliver at the current time.
    engine.schedule_at(engine.now(), [world, dst_world, env]() mutable {
      world->deliver(dst_world, std::move(env));
    });
  } else {
    const Seconds arrival = world_.network().transfer(
        world_rank_, dst_world, bytes, engine.now());
    engine.schedule_at(arrival, [world, dst_world, env]() mutable {
      world->deliver(dst_world, std::move(env));
    });
  }
  return req;
}

void Comm::send_impl(Rank dst, int tag, Bytes bytes) {
  // A synchronous (rendezvous-class) send parks until the receiver matches.
  Request req = isend_impl(dst, tag, bytes);
  wait_impl(req);
}

Request Comm::irecv_impl(Rank src, int tag) {
  GEARSIM_REQUIRE(src == kAnySource || (src >= 0 && src < size()),
                  "receive from invalid rank");
  GEARSIM_REQUIRE(tag == kAnyTag || tag <= kMaxUserTag, "invalid tag");
  overhead();
  Request req;
  req.op_ = world_.acquire_op();
  req.op_->src_filter = src;
  req.op_->tag_filter = tag;
  req.op_->context = context_;
  world_.post_recv(world_rank_, req.op_);
  return req;
}

Status Comm::wait_impl(Request& request) {
  GEARSIM_REQUIRE(request.valid(), "wait on an empty request");
  if (request.sent_) return Status{};
  detail::OpState& op = *request.op_;
  if (!op.complete) {
    op.waiter = &proc();
    proc().block();
    op.waiter = nullptr;
    GEARSIM_ENSURE(op.complete, "woken request was not completed");
  }
  return op.status;  // Default for a send: only receives fill it.
}

Status Comm::recv_impl(Rank src, int tag) {
  Request req = irecv_impl(src, tag);
  return wait_impl(req);
}

// --- traced point-to-point ---------------------------------------------------

void Comm::send(Rank dst, int tag, Bytes bytes) {
  GEARSIM_REQUIRE(tag >= 0 && tag <= kMaxUserTag, "user tags are 0..2^20");
  Traced guard(*this, CallType::kSend, bytes, dst);
  send_impl(dst, tag, bytes);
}

Status Comm::recv(Rank src, int tag) {
  Traced guard(*this, CallType::kRecv, 0, src);
  return recv_impl(src, tag);
}

Request Comm::isend(Rank dst, int tag, Bytes bytes) {
  GEARSIM_REQUIRE(tag >= 0 && tag <= kMaxUserTag, "user tags are 0..2^20");
  Traced guard(*this, CallType::kIsend, bytes, dst);
  return isend_impl(dst, tag, bytes);
}

Request Comm::irecv(Rank src, int tag) {
  Traced guard(*this, CallType::kIrecv, 0, src);
  return irecv_impl(src, tag);
}

Status Comm::wait(Request& request) {
  Traced guard(*this, CallType::kWait, 0, kAnySource);
  return wait_impl(request);
}

void Comm::waitall(std::span<Request> requests) {
  Traced guard(*this, CallType::kWaitall, 0, kAnySource);
  for (auto& request : requests) wait_impl(request);
}

Status Comm::sendrecv(Rank dst, int send_tag, Bytes send_bytes, Rank src,
                      int recv_tag) {
  GEARSIM_REQUIRE(send_tag >= 0 && send_tag <= kMaxUserTag,
                  "user tags are 0..2^20");
  Traced guard(*this, CallType::kSendrecv, send_bytes, dst);
  Request sreq = isend_impl(dst, send_tag, send_bytes);
  const Status status = recv_impl(src, recv_tag);
  wait_impl(sreq);
  return status;
}

// --- collectives --------------------------------------------------------------

void Comm::barrier_impl() {
  const int n = size();
  const int base = next_collective_tag();
  int round = 0;
  for (int offset = 1; offset < n; offset <<= 1, ++round) {
    const Rank dst = (rank_ + offset) % n;
    const Rank src = (rank_ - offset % n + n) % n;
    Request sreq = isend_impl(dst, base + round, 0);
    recv_impl(src, base + round);
    wait_impl(sreq);
  }
}

void Comm::barrier() {
  Traced guard(*this, CallType::kBarrier, 0, kAnySource);
  barrier_impl();
}

void Comm::bcast_impl(Rank root, Bytes bytes, int op_tag) {
  const int n = size();
  const int vr = (rank_ - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if (vr & mask) {
      recv_impl((vr - mask + root) % n, op_tag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < n) {
      send_impl((vr + mask + root) % n, op_tag, bytes);
    }
    mask >>= 1;
  }
}

void Comm::bcast(Rank root, Bytes bytes) {
  GEARSIM_REQUIRE(root >= 0 && root < size(), "invalid root");
  Traced guard(*this, CallType::kBcast, bytes, root);
  bcast_impl(root, bytes, next_collective_tag());
}

void Comm::reduce_impl(Rank root, Bytes bytes, int op_tag) {
  const int n = size();
  const int vr = (rank_ - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if ((vr & mask) == 0) {
      const int vsrc = vr | mask;
      if (vsrc < n) recv_impl((vsrc + root) % n, op_tag);
    } else {
      send_impl(((vr & ~mask) + root) % n, op_tag, bytes);
      break;
    }
    mask <<= 1;
  }
}

void Comm::reduce(Rank root, Bytes bytes) {
  GEARSIM_REQUIRE(root >= 0 && root < size(), "invalid root");
  Traced guard(*this, CallType::kReduce, bytes, root);
  reduce_impl(root, bytes, next_collective_tag());
}

void Comm::allreduce(Bytes bytes) {
  Traced guard(*this, CallType::kAllreduce, bytes, kAnySource);
  reduce_impl(0, bytes, next_collective_tag());
  bcast_impl(0, bytes, next_collective_tag());
}

void Comm::alltoall(Bytes bytes_per_pair) {
  Traced guard(*this, CallType::kAlltoall, bytes_per_pair, kAnySource);
  const int n = size();
  const int tag = next_collective_tag();
  for (int i = 1; i < n; ++i) {
    const Rank dst = (rank_ + i) % n;
    const Rank src = (rank_ - i + n) % n;
    Request sreq = isend_impl(dst, tag, bytes_per_pair);
    recv_impl(src, tag);
    wait_impl(sreq);
  }
}

void Comm::allgather(Bytes bytes) {
  Traced guard(*this, CallType::kAllgather, bytes, kAnySource);
  const int n = size();
  const int tag = next_collective_tag();
  const Rank right = (rank_ + 1) % n;
  const Rank left = (rank_ - 1 + n) % n;
  // Ring: n-1 steps, each forwarding one contributor's block.
  for (int step = 0; step < n - 1; ++step) {
    Request sreq = isend_impl(right, tag, bytes);
    recv_impl(left, tag);
    wait_impl(sreq);
  }
}

void Comm::gather(Rank root, Bytes bytes) {
  GEARSIM_REQUIRE(root >= 0 && root < size(), "invalid root");
  Traced guard(*this, CallType::kGather, bytes, root);
  const int n = size();
  const int tag = next_collective_tag();
  const int vr = (rank_ - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if ((vr & mask) == 0) {
      const int vsrc = vr | mask;
      if (vsrc < n) recv_impl((vsrc + root) % n, tag);
    } else {
      // This subtree holds blocks vr .. min(vr+mask, n)-1.
      const int blocks = std::min(mask, n - vr);
      send_impl(((vr & ~mask) + root) % n, tag, bytes * blocks);
      break;
    }
    mask <<= 1;
  }
}

void Comm::reduce_scatter(Bytes bytes_per_rank) {
  Traced guard(*this, CallType::kReduceScatter, bytes_per_rank, kAnySource);
  const int n = size();
  const int tag = next_collective_tag();
  // Recursive halving: each round exchanges half of the remaining vector
  // with a partner at the current distance.  For non-power-of-two sizes
  // fall back to pairwise exchanges of the per-rank block.
  const bool pow2 = (n & (n - 1)) == 0;
  if (pow2) {
    Bytes chunk = bytes_per_rank * static_cast<Bytes>(n) / 2;
    for (int mask = n / 2; mask >= 1; mask /= 2) {
      const Rank peer = rank_ ^ mask;
      Request sreq = isend_impl(peer, tag + mask, chunk);
      recv_impl(peer, tag + mask);
      wait_impl(sreq);
      chunk = std::max<Bytes>(chunk / 2, 1);
    }
  } else {
    for (int i = 1; i < n; ++i) {
      const Rank dst = (rank_ + i) % n;
      const Rank src = (rank_ - i + n) % n;
      Request sreq = isend_impl(dst, tag, bytes_per_rank);
      recv_impl(src, tag);
      wait_impl(sreq);
    }
  }
}

void Comm::scan(Bytes bytes) {
  Traced guard(*this, CallType::kScan, bytes, kAnySource);
  const int tag = next_collective_tag();
  // Linear chain: receive the prefix from the left, pass it rightward.
  if (rank_ > 0) recv_impl(rank_ - 1, tag);
  if (rank_ + 1 < size()) send_impl(rank_ + 1, tag, bytes);
}

void Comm::scatter(Rank root, Bytes bytes) {
  GEARSIM_REQUIRE(root >= 0 && root < size(), "invalid root");
  Traced guard(*this, CallType::kScatter, bytes, root);
  const int n = size();
  const int tag = next_collective_tag();
  const int vr = (rank_ - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if (vr & mask) {
      recv_impl((vr - mask + root) % n, tag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < n) {
      const int blocks = std::min(mask, n - (vr + mask));
      send_impl((vr + mask + root) % n, tag, bytes * blocks);
    }
    mask >>= 1;
  }
}

}  // namespace gearsim::mpi
