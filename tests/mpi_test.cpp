// Tests for the simulated MPI runtime: point-to-point semantics (matching,
// wildcards, ordering, eager vs synchronous), nonblocking operations,
// collectives built on the p2p layer, observers, and failure modes.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "mpi/comm.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"

namespace gearsim::mpi {
namespace {

/// Spins up an n-rank world and runs `body` on every rank.
class MpiHarness {
 public:
  explicit MpiHarness(int n, MpiParams params = {},
                      net::NetworkParams net_params = net::ethernet_100mbps())
      : network_(net_params, static_cast<std::size_t>(n)),
        world_(engine_, network_, n, params) {}
  // A failed run leaves ranks suspended in MPI calls; unwind them while
  // the World their guards and requests reference is still alive.
  ~MpiHarness() { engine_.terminate_processes(); }
  MpiHarness(const MpiHarness&) = delete;
  MpiHarness& operator=(const MpiHarness&) = delete;

  World& world() { return world_; }
  sim::Engine& engine() { return engine_; }

  void run(const std::function<void(Comm&, sim::Process&)>& body) {
    for (int r = 0; r < world_.size(); ++r) {
      sim::Process& proc =
          engine_.spawn("rank" + std::to_string(r), [this, r, &body](sim::Process& p) {
            Comm comm(world_, r);
            body(comm, p);
          });
      world_.bind_rank(r, proc);
    }
    engine_.run();
  }

 private:
  sim::Engine engine_;
  net::Network network_;
  World world_;
};

TEST(MpiP2P, BlockingSendRecvDeliversStatus) {
  MpiHarness h(2);
  Status seen{};
  h.run([&](Comm& comm, sim::Process&) {
    if (comm.rank() == 0) {
      comm.send(1, 7, 1234);
    } else {
      seen = comm.recv(0, 7);
    }
  });
  EXPECT_EQ(seen.source, 0);
  EXPECT_EQ(seen.tag, 7);
  EXPECT_EQ(seen.bytes, Bytes{1234});
}

TEST(MpiP2P, RecvBlocksUntilMessageArrives) {
  MpiHarness h(2);
  double recv_done = 0.0;
  h.run([&](Comm& comm, sim::Process& p) {
    if (comm.rank() == 0) {
      p.delay(seconds(1.0));       // Send late.
      comm.send(1, 0, 100'000);
    } else {
      comm.recv(0, 0);
      recv_done = p.now().value();
    }
  });
  // Receiver waited for the 1 s delay plus transfer time.
  EXPECT_GT(recv_done, 1.0);
}

TEST(MpiP2P, EarlyMessageWaitsInUnexpectedQueue) {
  MpiHarness h(2);
  Status seen{};
  h.run([&](Comm& comm, sim::Process& p) {
    if (comm.rank() == 0) {
      comm.send(1, 3, 64);
    } else {
      p.delay(seconds(2.0));  // Let the message arrive unexpected.
      seen = comm.recv(0, 3);
    }
  });
  EXPECT_EQ(seen.tag, 3);
}

TEST(MpiP2P, TagFilteringSelectsAcrossArrivalOrder) {
  MpiHarness h(2);
  std::vector<int> order;
  h.run([&](Comm& comm, sim::Process& p) {
    if (comm.rank() == 0) {
      comm.send(1, 1, 64);
      comm.send(1, 2, 64);
    } else {
      p.delay(seconds(1.0));
      order.push_back(comm.recv(0, 2).tag);  // Match the later-sent first.
      order.push_back(comm.recv(0, 1).tag);
    }
  });
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(MpiP2P, WildcardSourceAndTag) {
  MpiHarness h(3);
  std::vector<Rank> sources;
  h.run([&](Comm& comm, sim::Process&) {
    if (comm.rank() == 2) {
      for (int i = 0; i < 2; ++i) {
        sources.push_back(comm.recv(kAnySource, kAnyTag).source);
      }
    } else {
      comm.send(2, 10 + comm.rank(), 64);
    }
  });
  ASSERT_EQ(sources.size(), 2u);
  EXPECT_NE(sources[0], sources[1]);
}

TEST(MpiP2P, PairwiseOrderingIsFifo) {
  MpiHarness h(2);
  std::vector<Bytes> sizes;
  h.run([&](Comm& comm, sim::Process&) {
    if (comm.rank() == 0) {
      for (Bytes b = 1; b <= 5; ++b) comm.send(1, 0, b * 100);
    } else {
      for (int i = 0; i < 5; ++i) sizes.push_back(comm.recv(0, 0).bytes);
    }
  });
  EXPECT_EQ(sizes, (std::vector<Bytes>{100, 200, 300, 400, 500}));
}

TEST(MpiP2P, EagerSendDoesNotBlockOnMissingReceiver) {
  MpiHarness h(2);
  double send_done = -1.0;
  h.run([&](Comm& comm, sim::Process& p) {
    if (comm.rank() == 0) {
      comm.send(1, 0, 1024);  // Below the eager threshold.
      send_done = p.now().value();
    } else {
      p.delay(seconds(5.0));
      comm.recv(0, 0);
    }
  });
  // Sender finished long before the receiver posted (software cost only).
  EXPECT_LT(send_done, 0.1);
}

TEST(MpiP2P, SynchronousSendWaitsForTheMatch) {
  MpiParams params;
  params.eager_threshold = 1000;  // Force rendezvous for big messages.
  MpiHarness h(2, params);
  double send_done = -1.0;
  h.run([&](Comm& comm, sim::Process& p) {
    if (comm.rank() == 0) {
      comm.send(1, 0, 100'000);
      send_done = p.now().value();
    } else {
      p.delay(seconds(3.0));
      comm.recv(0, 0);
    }
  });
  EXPECT_GE(send_done, 3.0);  // Blocked until the receiver matched.
}

TEST(MpiP2P, SelfSendCompletesWithoutNetwork) {
  MpiHarness h(1);
  Status seen{};
  h.run([&](Comm& comm, sim::Process&) {
    comm.send(0, 5, 4096);
    seen = comm.recv(0, 5);
  });
  EXPECT_EQ(seen.source, 0);
  EXPECT_EQ(seen.bytes, Bytes{4096});
}

TEST(MpiP2P, RejectsInvalidArguments) {
  MpiHarness h(2);
  h.run([&](Comm& comm, sim::Process&) {
    if (comm.rank() == 0) {
      EXPECT_THROW(comm.send(5, 0, 1), ContractError);   // Bad rank.
      EXPECT_THROW(comm.send(1, -3, 1), ContractError);  // Internal tag.
      comm.send(1, 0, 1);                                // Unblock peer.
    } else {
      comm.recv(0, 0);
    }
  });
}

// --- nonblocking -----------------------------------------------------------------

TEST(MpiNonblocking, IrecvWaitRoundtrip) {
  MpiHarness h(2);
  Status seen{};
  h.run([&](Comm& comm, sim::Process&) {
    if (comm.rank() == 0) {
      comm.send(1, 9, 512);
    } else {
      Request r = comm.irecv(0, 9);
      seen = comm.wait(r);
    }
  });
  EXPECT_EQ(seen.tag, 9);
}

TEST(MpiNonblocking, IrecvOverlapsComputation) {
  MpiHarness h(2);
  bool done_before_wait = false;
  h.run([&](Comm& comm, sim::Process& p) {
    if (comm.rank() == 0) {
      comm.send(1, 0, 64);
    } else {
      Request r = comm.irecv(0, 0);
      p.delay(seconds(2.0));          // "Compute" while the message lands.
      done_before_wait = r.done();
      comm.wait(r);
    }
  });
  EXPECT_TRUE(done_before_wait);
}

TEST(MpiNonblocking, EagerIsendIsImmediatelyDone) {
  MpiHarness h(2);
  h.run([&](Comm& comm, sim::Process&) {
    if (comm.rank() == 0) {
      Request r = comm.isend(1, 0, 64);
      EXPECT_TRUE(r.done());
      comm.wait(r);  // No-op.
    } else {
      comm.recv(0, 0);
    }
  });
}

TEST(MpiNonblocking, WaitallDrainsMixedRequests) {
  MpiHarness h(3);
  int received = 0;
  h.run([&](Comm& comm, sim::Process&) {
    if (comm.rank() == 0) {
      std::vector<Request> reqs;
      reqs.push_back(comm.irecv(1, 0));
      reqs.push_back(comm.irecv(2, 0));
      reqs.push_back(comm.isend(1, 1, 64));
      comm.waitall(reqs);
      for (const auto& r : reqs) {
        if (r.done()) ++received;
      }
    } else {
      comm.send(0, 0, 64);
      if (comm.rank() == 1) comm.recv(0, 1);
    }
  });
  EXPECT_EQ(received, 3);
}

TEST(MpiNonblocking, DroppedIrecvStillConsumesItsMessage) {
  // An irecv posted before its message and dropped unwaited stays posted:
  // it takes the first message, so the blocking recv gets the second.
  // Same when the message is already waiting in the unexpected queue.
  MpiHarness h(2);
  std::vector<Status> seen(2);
  h.run([&](Comm& comm, sim::Process& p) {
    if (comm.rank() == 0) {
      p.delay(seconds(1.0));
      comm.send(1, 5, 100);
      comm.send(1, 5, 200);
      comm.send(1, 6, 300);
      comm.send(1, 6, 400);
    } else {
      (void)comm.irecv(0, 5);  // Posted: matches on arrival.
      seen[0] = comm.recv(0, 5);
      p.delay(seconds(1.0));   // Both tag-6 messages are unexpected now.
      (void)comm.irecv(0, 6);  // Matches the first at once.
      seen[1] = comm.recv(0, 6);
    }
  });
  EXPECT_EQ(seen[0].bytes, Bytes{200});
  EXPECT_EQ(seen[1].bytes, Bytes{400});
}

TEST(MpiNonblocking, RequestCopiesShareCompletion) {
  MpiParams params;
  params.eager_threshold = 10;  // The send below is rendezvous.
  MpiHarness h(2, params);
  std::vector<bool> copy_done(2, false);
  h.run([&](Comm& comm, sim::Process& p) {
    const Rank peer = 1 - comm.rank();
    Request req = comm.rank() == 0 ? comm.isend(peer, 0, 1000)
                                   : comm.irecv(peer, 0);
    const Request copy = req;
    EXPECT_FALSE(copy.done());
    if (comm.rank() == 1) p.delay(seconds(1.0));
    comm.wait(req);
    copy_done[comm.rank()] = copy.done();
  });
  EXPECT_TRUE(copy_done[0]);
  EXPECT_TRUE(copy_done[1]);
}

TEST(MpiNonblocking, WaitOnEmptyRequestThrows) {
  MpiHarness h(1);
  h.run([&](Comm& comm, sim::Process&) {
    Request empty;
    EXPECT_FALSE(empty.valid());
    EXPECT_THROW(comm.wait(empty), ContractError);
  });
}

TEST(MpiP2P, SendrecvExchangesWithoutDeadlock) {
  MpiHarness h(2);
  std::vector<Bytes> got(2);
  h.run([&](Comm& comm, sim::Process&) {
    const Rank peer = 1 - comm.rank();
    const Status s =
        comm.sendrecv(peer, 0, 1000 * (comm.rank() + 1), peer, 0);
    got[comm.rank()] = s.bytes;
  });
  EXPECT_EQ(got[0], Bytes{2000});
  EXPECT_EQ(got[1], Bytes{1000});
}

// --- collectives ------------------------------------------------------------------

class CollectiveSizes : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSizes, BarrierSynchronizes) {
  const int n = GetParam();
  MpiHarness h(n);
  std::vector<double> leave(n);
  const double stagger = 0.5;
  h.run([&](Comm& comm, sim::Process& p) {
    p.delay(seconds(stagger * comm.rank()));
    comm.barrier();
    leave[comm.rank()] = p.now().value();
  });
  // Nobody leaves before the last rank entered.
  const double last_entry = stagger * (n - 1);
  for (int r = 0; r < n; ++r) EXPECT_GE(leave[r], last_entry) << r;
}

TEST_P(CollectiveSizes, BcastReachesEveryRank) {
  const int n = GetParam();
  MpiHarness h(n);
  std::vector<double> done(n, -1.0);
  h.run([&](Comm& comm, sim::Process& p) {
    comm.bcast(0, kilobytes(100));
    done[comm.rank()] = p.now().value();
  });
  for (int r = 0; r < n; ++r) EXPECT_GE(done[r], 0.0) << r;
  if (n > 1) {
    // Non-roots finish no earlier than one transfer after start.
    for (int r = 1; r < n; ++r) EXPECT_GT(done[r], 0.008) << r;
  }
}

TEST_P(CollectiveSizes, AllreduceCompletesEverywhere) {
  const int n = GetParam();
  MpiHarness h(n);
  int finished = 0;
  h.run([&](Comm& comm, sim::Process&) {
    comm.allreduce(64);
    ++finished;
  });
  EXPECT_EQ(finished, n);
}

TEST_P(CollectiveSizes, AlltoallMovesAllPairs) {
  const int n = GetParam();
  MpiHarness h(n);
  h.run([&](Comm& comm, sim::Process&) { comm.alltoall(1000); });
  if (n > 1) {
    // n(n-1) user messages plus nothing else on the wire.
    EXPECT_EQ(h.world().network().messages_carried(),
              static_cast<std::uint64_t>(n) * (n - 1));
  }
}

TEST_P(CollectiveSizes, AllgatherRingCarriesNMinus1Steps) {
  const int n = GetParam();
  MpiHarness h(n);
  int finished = 0;
  h.run([&](Comm& comm, sim::Process&) {
    comm.allgather(512);
    ++finished;
  });
  EXPECT_EQ(finished, n);
  if (n > 1) {
    EXPECT_EQ(h.world().network().messages_carried(),
              static_cast<std::uint64_t>(n) * (n - 1));
  }
}

TEST_P(CollectiveSizes, GatherAndScatterComplete) {
  const int n = GetParam();
  MpiHarness h(n);
  int finished = 0;
  h.run([&](Comm& comm, sim::Process&) {
    comm.gather(0, 1000);
    comm.scatter(0, 1000);
    ++finished;
  });
  EXPECT_EQ(finished, n);
}

TEST_P(CollectiveSizes, ReduceToNonzeroRoot) {
  const int n = GetParam();
  MpiHarness h(n);
  int finished = 0;
  h.run([&](Comm& comm, sim::Process&) {
    comm.reduce(n - 1, 2048);
    comm.bcast(n - 1, 2048);
    ++finished;
  });
  EXPECT_EQ(finished, n);
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CollectiveSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16));

TEST(MpiCollectives, BackToBackBarriersDoNotCrossTalk) {
  MpiHarness h(4);
  std::vector<int> counts(4, 0);
  h.run([&](Comm& comm, sim::Process& p) {
    for (int i = 0; i < 10; ++i) {
      // Uneven pacing tries to let a fast rank lap a slow one.
      p.delay(seconds(0.01 * ((comm.rank() + i) % 3)));
      comm.barrier();
      ++counts[comm.rank()];
    }
  });
  for (int r = 0; r < 4; ++r) EXPECT_EQ(counts[r], 10);
}

TEST(MpiCollectives, BcastScalesLogarithmically) {
  // Binomial tree: doubling ranks adds ~one transfer stage, not n stages.
  auto bcast_time = [](int n) {
    MpiHarness h(n);
    double t = 0.0;
    h.run([&](Comm& comm, sim::Process& p) {
      comm.bcast(0, megabytes(1));
      if (comm.rank() == n - 1) t = p.now().value();
    });
    return t;
  };
  const double t2 = bcast_time(2);
  const double t8 = bcast_time(8);
  const double t16 = bcast_time(16);
  // A linear (root-sends-to-everyone) algorithm would serialize n-1 full
  // transfers; the tree must beat that comfortably.  (Stage costs carry a
  // constant factor from fabric-reservation contention, so the bound is
  // stages-vs-links, not an exact log.)
  EXPECT_LT(t8, 0.66 * 7.0 * t2);
  EXPECT_LT(t16, 0.66 * 15.0 * t2);
  EXPECT_LT(t16, 2.5 * t8);  // Doubling ranks adds ~one (fat) stage.
}

// --- observers and failure modes ----------------------------------------------------

class CountingObserver final : public CallObserver {
 public:
  void on_enter(Rank, CallType, Seconds, Bytes, Rank) override { ++enters; }
  void on_exit(Rank, CallType, Seconds) override { ++exits; }
  int enters = 0;
  int exits = 0;
};

TEST(MpiObserver, SeesTopLevelCallsOnly) {
  MpiHarness h(4);
  CountingObserver obs;
  h.world().add_observer(&obs);
  h.run([&](Comm& comm, sim::Process&) { comm.allreduce(64); });
  // One traced call per rank — the collective's internal tree sends are
  // invisible, like PMPI.
  EXPECT_EQ(obs.enters, 4);
  EXPECT_EQ(obs.exits, 4);
  EXPECT_EQ(h.world().traced_calls(), 4u);
}

TEST(MpiFailure, RecvWithoutSenderDeadlocks) {
  MpiHarness h(2);
  EXPECT_THROW(h.run([&](Comm& comm, sim::Process&) {
                 if (comm.rank() == 0) comm.recv(1, 0);
               }),
               SimulationError);
}

TEST(MpiFailure, MutualRecvDeadlocks) {
  MpiHarness h(2);
  EXPECT_THROW(h.run([&](Comm& comm, sim::Process&) {
                 comm.recv(1 - comm.rank(), 0);
               }),
               SimulationError);
}

TEST(MpiFailure, RendezvousHeadToHeadSendsDeadlock) {
  // The classic unsafe pattern: both ranks send large messages first.
  MpiParams params;
  params.eager_threshold = 10;
  MpiHarness h(2, params);
  EXPECT_THROW(h.run([&](Comm& comm, sim::Process&) {
                 comm.send(1 - comm.rank(), 0, 1'000'000);
                 comm.recv(1 - comm.rank(), 0);
               }),
               SimulationError);
}

TEST(MpiFailure, EagerHeadToHeadSendsAreSafe) {
  MpiHarness h(2);
  int finished = 0;
  h.run([&](Comm& comm, sim::Process&) {
    comm.send(1 - comm.rank(), 0, 1000);
    comm.recv(1 - comm.rank(), 0);
    ++finished;
  });
  EXPECT_EQ(finished, 2);
}

TEST(MpiWorld, RejectsDoubleBindAndBadRanks) {
  sim::Engine engine;
  net::Network network(net::ethernet_100mbps(), 2);
  World world(engine, network, 2);
  sim::Process& p = engine.spawn("p", [](sim::Process&) {});
  world.bind_rank(0, p);
  EXPECT_THROW(world.bind_rank(0, p), ContractError);
  EXPECT_THROW(world.bind_rank(7, p), ContractError);
  engine.run();
}

TEST(MpiWorld, RejectsWorldLargerThanNetwork) {
  sim::Engine engine;
  net::Network network(net::ethernet_100mbps(), 2);
  EXPECT_THROW(World(engine, network, 4), ContractError);
}


// --- reduce_scatter and scan ----------------------------------------------------------

TEST_P(CollectiveSizes, ReduceScatterCompletes) {
  const int n = GetParam();
  MpiHarness h(n);
  int finished = 0;
  h.run([&](Comm& comm, sim::Process&) {
    comm.reduce_scatter(4096);
    ++finished;
  });
  EXPECT_EQ(finished, n);
}

TEST_P(CollectiveSizes, ScanIsAPrefixChain) {
  const int n = GetParam();
  MpiHarness h(n);
  std::vector<double> done(n);
  h.run([&](Comm& comm, sim::Process& p) {
    comm.scan(kilobytes(16));
    done[comm.rank()] = p.now().value();
  });
  // Inclusive prefix: completion times are non-decreasing along the chain.
  for (int r = 1; r < n; ++r) EXPECT_GE(done[r], done[r - 1] - 1e-12) << r;
}

TEST(MpiCollectives, ReduceScatterPowerOfTwoUsesHalving) {
  // Recursive halving on 8 ranks: 3 rounds of 1 exchange each per rank
  // (vs 7 rounds pairwise): strictly fewer messages.
  MpiHarness pow2(8);
  pow2.run([&](Comm& comm, sim::Process&) { comm.reduce_scatter(1024); });
  const auto pow2_msgs = pow2.world().network().messages_carried();
  MpiHarness odd(7);
  odd.run([&](Comm& comm, sim::Process&) { comm.reduce_scatter(1024); });
  const auto odd_msgs = odd.world().network().messages_carried();
  EXPECT_EQ(pow2_msgs, 8u * 3u);
  EXPECT_EQ(odd_msgs, 7u * 6u);
}

// --- communicator splitting ---------------------------------------------------------

TEST(MpiSplit, RowAndColumnCommunicators) {
  MpiHarness h(4);  // 2x2 grid.
  std::vector<int> row_sizes(4), row_ranks(4), col_ranks(4);
  h.run([&](Comm& comm, sim::Process&) {
    Comm row = comm.split_row(2);
    Comm col = comm.split_col(2);
    row_sizes[comm.rank()] = row.size();
    row_ranks[comm.rank()] = row.rank();
    col_ranks[comm.rank()] = col.rank();
    EXPECT_FALSE(row.is_world());
    EXPECT_TRUE(comm.is_world());
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(row_sizes[r], 2);
    EXPECT_EQ(row_ranks[r], r % 2);   // Position within the row.
    EXPECT_EQ(col_ranks[r], r / 2);   // Position within the column.
  }
}

TEST(MpiSplit, SubCommunicatorPointToPoint) {
  MpiHarness h(4);
  std::vector<Bytes> got(4, 0);
  h.run([&](Comm& comm, sim::Process&) {
    // Colors {0,0,1,1}: two pairs.
    Comm sub = comm.split(comm.rank() / 2, comm.rank());
    ASSERT_EQ(sub.size(), 2);
    if (sub.rank() == 0) {
      sub.send(1, 5, 1000 + comm.rank());
    } else {
      got[comm.rank()] = sub.recv(0, 5).bytes;
    }
  });
  EXPECT_EQ(got[1], Bytes{1000});  // From world rank 0 (local 0 of color 0).
  EXPECT_EQ(got[3], Bytes{1002});  // From world rank 2 (local 0 of color 1).
}

TEST(MpiSplit, ContextsIsolateTraffic) {
  // A world-communicator wildcard receive must NOT match traffic sent on
  // a sub-communicator, even with identical (src, tag).
  MpiHarness h(2);
  std::vector<Bytes> got(2, 0);
  h.run([&](Comm& comm, sim::Process&) {
    Comm sub = comm.split(0, comm.rank());
    if (comm.rank() == 0) {
      sub.send(1, 7, 111);    // Sub-communicator traffic.
      comm.send(1, 7, 222);   // World traffic, same source and tag.
    } else {
      got[0] = comm.recv(kAnySource, kAnyTag).bytes;  // World first.
      got[1] = sub.recv(0, 7).bytes;
    }
  });
  EXPECT_EQ(got[0], Bytes{222});
  EXPECT_EQ(got[1], Bytes{111});
}

TEST(MpiSplit, CollectivesOnSubCommunicators) {
  MpiHarness h(8);
  int finished = 0;
  h.run([&](Comm& comm, sim::Process&) {
    Comm half = comm.split(comm.rank() % 2, comm.rank());
    half.allreduce(64);
    half.barrier();
    half.bcast(0, 1024);
    ++finished;
  });
  EXPECT_EQ(finished, 8);
}

TEST(MpiSplit, KeyControlsOrdering) {
  MpiHarness h(3);
  std::vector<int> local(3);
  h.run([&](Comm& comm, sim::Process&) {
    // Reverse the ordering via descending keys.
    Comm sub = comm.split(0, -comm.rank());
    local[comm.rank()] = sub.rank();
  });
  EXPECT_EQ(local[0], 2);
  EXPECT_EQ(local[1], 1);
  EXPECT_EQ(local[2], 0);
}

TEST(MpiSplit, NestedSplits) {
  MpiHarness h(8);
  std::vector<int> leaf_sizes(8);
  h.run([&](Comm& comm, sim::Process&) {
    Comm half = comm.split(comm.rank() / 4, comm.rank());
    Comm quarter = half.split(half.rank() / 2, half.rank());
    leaf_sizes[comm.rank()] = quarter.size();
    quarter.barrier();  // Must synchronize exactly the pair.
  });
  for (int r = 0; r < 8; ++r) EXPECT_EQ(leaf_sizes[r], 2);
}

TEST(MpiSplit, SplitIsTracedAsACall) {
  MpiHarness h(2);
  CountingObserver obs;
  h.world().add_observer(&obs);
  h.run([&](Comm& comm, sim::Process&) {
    (void)comm.split(0, comm.rank());
  });
  EXPECT_EQ(obs.enters, 2);  // One Comm_split per rank; the internal
                             // barrier is untraced.
}

}  // namespace
}  // namespace gearsim::mpi
