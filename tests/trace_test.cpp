// Tests for the tracing substrate: record collection, the paper's
// active/idle and critical/reducible decompositions, and the online fold
// (BreakdownObserver) against the stored-trace analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "mpi/comm.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "trace/analysis.hpp"
#include "trace/tracer.hpp"

namespace gearsim::trace {
namespace {

TraceRecord rec(mpi::CallType type, double enter, double exit,
                Bytes bytes = 0) {
  TraceRecord r;
  r.type = type;
  r.enter = seconds(enter);
  r.exit = seconds(exit);
  r.bytes = bytes;
  return r;
}

// --- Tracer ------------------------------------------------------------------

TEST(Tracer, RecordsEnterExitPairs) {
  Tracer t(2);
  t.on_enter(0, mpi::CallType::kSend, seconds(1.0), 100, 1);
  t.on_exit(0, mpi::CallType::kSend, seconds(1.5));
  t.on_enter(1, mpi::CallType::kRecv, seconds(0.5), 0, 0);
  t.on_exit(1, mpi::CallType::kRecv, seconds(2.0));
  ASSERT_EQ(t.records(0).size(), 1u);
  EXPECT_DOUBLE_EQ(t.records(0)[0].duration().value(), 0.5);
  EXPECT_EQ(t.records(0)[0].peer, 1);
  EXPECT_DOUBLE_EQ(t.records(1)[0].duration().value(), 1.5);
  EXPECT_EQ(t.total_records(), 2u);
}

TEST(Tracer, CountsByType) {
  Tracer t(1);
  for (int i = 0; i < 3; ++i) {
    t.on_enter(0, mpi::CallType::kSend, seconds(i), 1, 0);
    t.on_exit(0, mpi::CallType::kSend, seconds(i + 0.1));
  }
  t.on_enter(0, mpi::CallType::kBarrier, seconds(10), 0, -1);
  t.on_exit(0, mpi::CallType::kBarrier, seconds(11));
  EXPECT_EQ(t.count(0, mpi::CallType::kSend), 3u);
  EXPECT_EQ(t.count(0, mpi::CallType::kBarrier), 1u);
  EXPECT_EQ(t.count(0, mpi::CallType::kRecv), 0u);
}

TEST(Tracer, RejectsNestedAndUnbalancedCalls) {
  Tracer t(1);
  t.on_enter(0, mpi::CallType::kSend, seconds(0), 0, 0);
  EXPECT_THROW(t.on_enter(0, mpi::CallType::kRecv, seconds(0.1), 0, 0),
               ContractError);
  t.on_exit(0, mpi::CallType::kSend, seconds(0.2));
  EXPECT_THROW(t.on_exit(0, mpi::CallType::kSend, seconds(0.3)),
               ContractError);
}

TEST(Tracer, RejectsMismatchedExitType) {
  Tracer t(1);
  t.on_enter(0, mpi::CallType::kSend, seconds(0), 0, 0);
  EXPECT_THROW(t.on_exit(0, mpi::CallType::kRecv, seconds(1)), ContractError);
}

TEST(Tracer, ClearResets) {
  Tracer t(1);
  t.on_enter(0, mpi::CallType::kSend, seconds(0), 0, 0);
  t.on_exit(0, mpi::CallType::kSend, seconds(1));
  t.clear();
  EXPECT_EQ(t.total_records(), 0u);
}

// --- active/idle decomposition ---------------------------------------------------

TEST(Analysis, ActivePlusIdleEqualsWall) {
  const std::vector<TraceRecord> records = {
      rec(mpi::CallType::kRecv, 2.0, 3.0),
      rec(mpi::CallType::kSend, 5.0, 5.1),
      rec(mpi::CallType::kBarrier, 8.0, 9.0),
  };
  const RankBreakdown b = analyze_rank(records, seconds(0.0), seconds(10.0));
  EXPECT_DOUBLE_EQ(b.wall.value(), 10.0);
  EXPECT_NEAR(b.idle.value(), 2.1, 1e-12);
  EXPECT_NEAR(b.active.value(), 7.9, 1e-12);
  EXPECT_NEAR((b.active + b.idle).value(), b.wall.value(), 1e-12);
  EXPECT_EQ(b.mpi_calls, 3u);
}

TEST(Analysis, NoMpiMeansAllActive) {
  const RankBreakdown b = analyze_rank({}, seconds(0.0), seconds(5.0));
  EXPECT_DOUBLE_EQ(b.active.value(), 5.0);
  EXPECT_DOUBLE_EQ(b.idle.value(), 0.0);
  EXPECT_DOUBLE_EQ(b.critical.value(), 5.0);
  EXPECT_DOUBLE_EQ(b.reducible.value(), 0.0);
}

// --- reducible work ("last send -> blocking point") -------------------------------

TEST(Analysis, ComputeBetweenSendAndBlockIsReducible) {
  const std::vector<TraceRecord> records = {
      rec(mpi::CallType::kSend, 1.0, 1.1),   // Send completes at 1.1.
      rec(mpi::CallType::kRecv, 4.1, 5.0),   // Blocking point at 4.1.
  };
  const RankBreakdown b = analyze_rank(records, seconds(0.0), seconds(6.0));
  // Compute in (1.1, 4.1) = 3.0 s is reducible.
  EXPECT_NEAR(b.reducible.value(), 3.0, 1e-12);
  EXPECT_NEAR(b.critical.value(), b.active.value() - 3.0, 1e-12);
}

TEST(Analysis, ComputeBeforeTheSendIsCritical) {
  const std::vector<TraceRecord> records = {
      rec(mpi::CallType::kSend, 3.0, 3.1),
      rec(mpi::CallType::kRecv, 4.1, 5.0),
  };
  const RankBreakdown b = analyze_rank(records, seconds(0.0), seconds(5.0));
  // Only (3.1, 4.1) is reducible; the 3.0 s before the send are critical.
  EXPECT_NEAR(b.reducible.value(), 1.0, 1e-12);
}

TEST(Analysis, OnlyFirstBlockingPointAfterASendCounts) {
  const std::vector<TraceRecord> records = {
      rec(mpi::CallType::kSend, 1.0, 1.0),
      rec(mpi::CallType::kRecv, 2.0, 2.5),   // Closes the window (1.0,2.0).
      rec(mpi::CallType::kBarrier, 4.5, 5.0) // No send since: not reducible.
  };
  const RankBreakdown b = analyze_rank(records, seconds(0.0), seconds(5.0));
  EXPECT_NEAR(b.reducible.value(), 1.0, 1e-12);
}

TEST(Analysis, LaterSendRestartsTheWindow) {
  const std::vector<TraceRecord> records = {
      rec(mpi::CallType::kSend, 1.0, 1.0),
      rec(mpi::CallType::kSend, 3.0, 3.0),   // Restart: (1,3) not counted...
      rec(mpi::CallType::kRecv, 4.0, 4.5),   // ...only (3,4) is reducible.
  };
  const RankBreakdown b = analyze_rank(records, seconds(0.0), seconds(5.0));
  EXPECT_NEAR(b.reducible.value(), 1.0, 1e-12);
}

TEST(Analysis, IsendCountsAsSendIrecvDoesNotBlock) {
  const std::vector<TraceRecord> records = {
      rec(mpi::CallType::kIsend, 1.0, 1.0),
      rec(mpi::CallType::kIrecv, 2.0, 2.0),  // Nonblocking: window stays open.
      rec(mpi::CallType::kWait, 4.0, 4.8),   // The wait is the blocking point.
  };
  const RankBreakdown b = analyze_rank(records, seconds(0.0), seconds(5.0));
  EXPECT_NEAR(b.reducible.value(), 3.0, 1e-12);
}

TEST(Analysis, SendWithNoLaterBlockingPointYieldsNoReducible) {
  const std::vector<TraceRecord> records = {
      rec(mpi::CallType::kSend, 1.0, 1.1),
  };
  const RankBreakdown b = analyze_rank(records, seconds(0.0), seconds(9.0));
  EXPECT_DOUBLE_EQ(b.reducible.value(), 0.0);
}

TEST(Analysis, OutOfOrderRecordsThrow) {
  const std::vector<TraceRecord> records = {
      rec(mpi::CallType::kSend, 2.0, 2.5),
      rec(mpi::CallType::kRecv, 1.0, 3.0),
  };
  EXPECT_THROW(analyze_rank(records, seconds(0.0), seconds(5.0)),
               ContractError);
}

// --- cluster-level aggregation ------------------------------------------------------

TEST(Analysis, ClusterUsesMaxActiveRank) {
  Tracer t(2);
  // Rank 0 idles 4 s; rank 1 idles 1 s (more active -> the T^A(n) rank).
  t.on_enter(0, mpi::CallType::kRecv, seconds(1.0), 0, 1);
  t.on_exit(0, mpi::CallType::kRecv, seconds(5.0));
  t.on_enter(1, mpi::CallType::kRecv, seconds(6.0), 0, 0);
  t.on_exit(1, mpi::CallType::kRecv, seconds(7.0));
  const ClusterBreakdown c = analyze_cluster(t, seconds(0.0), seconds(10.0));
  EXPECT_DOUBLE_EQ(c.active_max.value(), 9.0);   // Rank 1.
  EXPECT_DOUBLE_EQ(c.idle_derived.value(), 1.0); // wall - active_max.
  EXPECT_DOUBLE_EQ(c.active_mean.value(), 7.5);
  EXPECT_DOUBLE_EQ(c.idle_mean.value(), 2.5);
  ASSERT_EQ(c.ranks.size(), 2u);
}

TEST(Analysis, ClusterCriticalReducibleComeFromMaxRank) {
  Tracer t(2);
  // Rank 0: a send then a blocking recv -> reducible window; very active.
  t.on_enter(0, mpi::CallType::kSend, seconds(1.0), 8, 1);
  t.on_exit(0, mpi::CallType::kSend, seconds(1.0));
  t.on_enter(0, mpi::CallType::kRecv, seconds(3.0), 0, 1);
  t.on_exit(0, mpi::CallType::kRecv, seconds(3.5));
  // Rank 1: idles most of the run.
  t.on_enter(1, mpi::CallType::kRecv, seconds(0.0), 0, 0);
  t.on_exit(1, mpi::CallType::kRecv, seconds(8.0));
  const ClusterBreakdown c = analyze_cluster(t, seconds(0.0), seconds(10.0));
  EXPECT_DOUBLE_EQ(c.active_max.value(), 9.5);      // Rank 0.
  EXPECT_DOUBLE_EQ(c.reducible.value(), 2.0);       // Rank 0's window.
  EXPECT_DOUBLE_EQ(c.critical.value(), 7.5);
}

// --- end-to-end: trace a real simulated exchange -------------------------------------

TEST(Analysis, EndToEndDecompositionOfASimulatedRun) {
  sim::Engine engine;
  net::Network network(net::ethernet_100mbps(), 2);
  mpi::World world(engine, network, 2);
  Tracer tracer(2);
  world.add_observer(&tracer);
  std::vector<Seconds> finish(2);
  for (int r = 0; r < 2; ++r) {
    sim::Process& proc =
        engine.spawn("rank" + std::to_string(r), [&, r](sim::Process& p) {
          mpi::Comm comm(world, r);
          if (r == 0) {
            p.delay(seconds(2.0));  // Compute.
            comm.send(1, 0, kilobytes(64));
            p.delay(seconds(1.0));  // Reducible tail...
            comm.recv(1, 1);        // ...ended by this blocking point.
          } else {
            comm.recv(0, 0);
            p.delay(seconds(0.5));
            comm.send(0, 1, kilobytes(64));
          }
          finish[r] = p.now();
        });
    world.bind_rank(r, proc);
  }
  engine.run();
  const Seconds wall = std::max(finish[0], finish[1]);
  const ClusterBreakdown c = analyze_cluster(tracer, Seconds{}, wall);
  // Rank 0 computed 3 s; rank 1 computed 0.5 s plus the tail after its
  // last MPI call until the run end (outside MPI counts as active).
  EXPECT_NEAR(c.ranks[0].active.value(), 3.0, 1e-3);
  const double tail = (wall - finish[1]).value();
  EXPECT_NEAR(c.ranks[1].active.value(), 0.5 + tail, 1e-3);
  EXPECT_NEAR(c.ranks[0].reducible.value(), 1.0, 1e-3);
  EXPECT_GT(c.ranks[1].idle.value(), 2.0);  // Waited for rank 0's send.
  EXPECT_DOUBLE_EQ(c.active_max.value(), c.ranks[0].active.value());
}

// --- the online fold -------------------------------------------------------------

TEST(BreakdownObserver, MatchesAnalyzeClusterOnASimulatedRun) {
  // Tracer and fold watch the same World; the online breakdown must equal
  // the stored-trace one exactly.  Rendezvous sends (eager threshold
  // lowered), nonblocking calls, collectives and uneven compute.
  constexpr int kRanks = 4;
  sim::Engine engine;
  net::Network network(net::ethernet_100mbps(), kRanks);
  mpi::MpiParams params;
  params.eager_threshold = kilobytes(8);
  mpi::World world(engine, network, kRanks, params);
  Tracer tracer(kRanks);
  BreakdownObserver fold(kRanks);
  world.add_observer(&fold);
  world.add_observer(&tracer);
  std::vector<Seconds> finish(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    sim::Process& proc =
        engine.spawn("rank" + std::to_string(r), [&, r](sim::Process& p) {
          mpi::Comm comm(world, r);
          const mpi::Rank right = (r + 1) % kRanks;
          const mpi::Rank left = (r + kRanks - 1) % kRanks;
          for (int i = 0; i < 6; ++i) {
            p.delay(seconds(0.01 * ((r * 7 + i * 3) % 5)));
            const Bytes size = i % 2 == 0 ? kilobytes(64) : kilobytes(1);
            mpi::Request reqs[2] = {comm.irecv(left, i),
                                    comm.isend(right, i, size)};
            p.delay(seconds(0.002 * r));
            comm.waitall(reqs);
            if (r % 2 == 0) {
              comm.send(right, 100 + i, size);
            } else {
              comm.recv(left, 100 + i);
            }
            if (i % 3 == 2) comm.allreduce(kilobytes(16));
          }
          comm.barrier();
          finish[r] = p.now();
        });
    world.bind_rank(r, proc);
  }
  engine.run();
  const Seconds wall = *std::max_element(finish.begin(), finish.end());
  const ClusterBreakdown stored = analyze_cluster(tracer, Seconds{}, wall);
  EXPECT_EQ(fold.breakdown(wall), stored);
  EXPECT_GT(stored.reducible.value(), 0.0);
  EXPECT_EQ(stored.ranks[0].mpi_calls, tracer.records(0).size());
}

TEST(BreakdownObserver, OpenCallCountsAsItsTracerRecordDoes) {
  Tracer tracer(1);
  BreakdownObserver fold(1);
  for (mpi::CallObserver* obs : {static_cast<mpi::CallObserver*>(&tracer),
                                 static_cast<mpi::CallObserver*>(&fold)}) {
    obs->on_enter(0, mpi::CallType::kSend, seconds(1.0), 8, 0);
    obs->on_exit(0, mpi::CallType::kSend, seconds(1.5));
    obs->on_enter(0, mpi::CallType::kRecv, seconds(3.0), 0, 0);
  }
  const ClusterBreakdown stored =
      analyze_cluster(tracer, Seconds{}, seconds(4.0));
  EXPECT_EQ(fold.breakdown(seconds(4.0)), stored);
  EXPECT_EQ(stored.ranks[0].mpi_calls, 2u);
  EXPECT_NEAR(stored.reducible.value(), 1.5, 1e-12);
}

TEST(BreakdownObserver, RejectsNestedAndUnbalancedCalls) {
  BreakdownObserver fold(1);
  EXPECT_THROW(fold.on_exit(0, mpi::CallType::kSend, seconds(0.1)),
               ContractError);
  fold.on_enter(0, mpi::CallType::kSend, seconds(0), 0, 0);
  EXPECT_THROW(fold.on_enter(0, mpi::CallType::kRecv, seconds(0.1), 0, 0),
               ContractError);
  EXPECT_THROW(fold.on_exit(0, mpi::CallType::kRecv, seconds(0.2)),
               ContractError);
  fold.on_exit(0, mpi::CallType::kSend, seconds(0.2));
  EXPECT_THROW(fold.on_enter(3, mpi::CallType::kSend, seconds(0.3), 0, 0),
               ContractError);
  EXPECT_THROW(BreakdownObserver(0), ContractError);
}

}  // namespace
}  // namespace gearsim::trace
