// Unit tests for the conservative parallel DES engine: time-window
// semantics, the cross-partition mailbox contract, determinism across
// thread counts, the conservative-bound enforcement, deadlock detection,
// and teardown lifetimes.  Cluster-level serial-vs-parallel equivalence
// lives in cluster_test.cpp (ParallelEngineMatrix).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/parallel_engine.hpp"
#include "util/assert.hpp"

namespace gearsim::sim {
namespace {

constexpr Seconds kLookahead = milliseconds(1.0);

TEST(ParallelEngine, ValidatesConstruction) {
  EXPECT_THROW(ParallelEngine(0, kLookahead), ContractError);
  EXPECT_THROW(ParallelEngine(2, Seconds{}), ContractError);
  EXPECT_THROW(ParallelEngine(2, seconds(-1.0)), ContractError);
  const ParallelEngine group(3, kLookahead, 2);
  EXPECT_EQ(group.partitions(), 3U);
  EXPECT_EQ(group.threads(), 2);
  EXPECT_DOUBLE_EQ(group.lookahead().value(), kLookahead.value());
}

TEST(ParallelEngine, ThreadsClampToPartitions) {
  const ParallelEngine group(2, kLookahead, 16);
  EXPECT_EQ(group.threads(), 2);
  const ParallelEngine defaulted(3, kLookahead, 0);
  EXPECT_EQ(defaulted.threads(), 3);
}

TEST(ParallelEngine, RunsPartitionLocalEventsInTimeOrder) {
  ParallelEngine group(2, kLookahead);
  std::vector<double> seen;  // Partition 0 only — single-writer.
  group.partition(0).schedule_at(seconds(2.0), [&] { seen.push_back(2.0); });
  group.partition(0).schedule_at(seconds(1.0), [&] { seen.push_back(1.0); });
  group.partition(1).schedule_at(seconds(1.5), [] {});
  group.run();
  EXPECT_EQ(seen, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(group.events_executed(), 3U);
  EXPECT_GE(group.windows(), 1U);
}

TEST(ParallelEngine, CrossPartitionPostDeliversAtRequestedTime) {
  ParallelEngine group(2, kLookahead, 1);
  Engine& p0 = group.partition(0);
  double delivered_at = -1.0;
  Engine* p1 = &group.partition(1);
  p0.schedule_at(seconds(1.0), [&, p1] {
    group.post(p0, 1, seconds(1.0) + kLookahead,
               [&, p1] { delivered_at = p1->now().value(); });
  });
  group.run();
  EXPECT_DOUBLE_EQ(delivered_at, (seconds(1.0) + kLookahead).value());
}

TEST(ParallelEngine, RejectsPostBelowConservativeHorizon) {
  ParallelEngine group(2, kLookahead, 1);
  Engine& p0 = group.partition(0);
  bool threw = false;
  p0.schedule_at(seconds(1.0), [&] {
    // The window horizon is >= 1.0 + lookahead once this event runs, so a
    // post at the current time violates the conservative bound.
    try {
      group.post(p0, 1, seconds(1.0), [] {});
    } catch (const ContractError&) {
      threw = true;
    }
  });
  group.run();
  EXPECT_TRUE(threw);
}

TEST(ParallelEngine, PostValidatesPartitions) {
  ParallelEngine group(2, kLookahead);
  Engine foreign;
  EXPECT_THROW(group.post(foreign, 0, seconds(1.0), [] {}), ContractError);
  EXPECT_THROW(group.post_at_barrier(2, seconds(1.0), [] {}), ContractError);
}

/// Ping-pong chain across partitions: each hop re-posts to the other
/// partition one lookahead later.  Deterministic event population for
/// any thread count.
std::uint64_t run_ping_pong(int threads, std::uint64_t* events) {
  ParallelEngine group(2, kLookahead, threads);
  // shared_ptr so the recursive callable survives being moved between
  // mailbox lanes and queues.
  struct Hop {
    ParallelEngine* group;
    int remaining;
    std::function<void(std::size_t, Seconds)> next;
  };
  auto hop = std::make_shared<Hop>();
  hop->group = &group;
  hop->remaining = 64;
  hop->next = [hop](std::size_t at, Seconds t) {
    if (hop->remaining-- <= 0) return;
    const std::size_t to = 1 - at;
    hop->group->post(hop->group->partition(at), to, t + kLookahead,
                     [hop, to, t] { hop->next(to, t + kLookahead); });
  };
  group.partition(0).schedule_at(seconds(0.0),
                                 [hop] { hop->next(0, seconds(0.0)); });
  group.run();
  hop->next = nullptr;  // Break the hop->next->hop shared_ptr cycle.
  if (events != nullptr) *events = group.events_executed();
  return group.event_set_hash();
}

TEST(ParallelEngine, PingPongIsDeterministicAcrossThreadCounts) {
  std::uint64_t events1 = 0;
  std::uint64_t events2 = 0;
  const std::uint64_t h1 = run_ping_pong(1, &events1);
  const std::uint64_t h2 = run_ping_pong(2, &events2);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(events1, events2);
  EXPECT_EQ(events1, 65U);  // Seed event + 64 hops.
}

/// 256 actors over 4 partitions on 4 threads, each stepping a private
/// chain and posting to the next partition every 8th step; the single
/// partition run is the serial oracle.  The order-independent set hash
/// must match exactly.
std::uint64_t run_actor_grid(std::size_t partitions, int threads,
                             std::uint64_t* events) {
  constexpr int kActors = 256;
  constexpr int kSteps = 20;
  struct Actor {
    ParallelEngine* group = nullptr;
    Engine* eng = nullptr;
    std::size_t partition = 0;
    int index = 0;
    int remaining = kSteps;
    void fire(Seconds now) {
      if (index % 8 == 0) {
        group->post(*eng, (partition + 1) % group->partitions(),
                    now + kLookahead, [] {});
      }
      if (--remaining <= 0) return;
      const Seconds next = now + milliseconds(0.25);
      eng->schedule_at(next, [this, next] { fire(next); });
    }
  };
  ParallelEngine group(partitions, kLookahead, threads);
  std::vector<Actor> actors(kActors);
  for (int a = 0; a < kActors; ++a) {
    const std::size_t p =
        static_cast<std::size_t>(a) * partitions / kActors;
    Actor& actor = actors[static_cast<std::size_t>(a)];
    actor = Actor{&group, &group.partition(p), p, a, kSteps};
    const Seconds start = microseconds(static_cast<double>(a % 7));
    group.partition(p).schedule_at(start,
                                   [&actor, start] { actor.fire(start); });
  }
  group.run();
  if (events != nullptr) *events = group.events_executed();
  return group.event_set_hash();
}

TEST(ParallelEngine, ActorGridMatchesSerialOracle) {
  std::uint64_t serial_events = 0;
  std::uint64_t parallel_events = 0;
  const std::uint64_t serial = run_actor_grid(1, 1, &serial_events);
  const std::uint64_t parallel = run_actor_grid(4, 4, &parallel_events);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial_events, parallel_events);
  EXPECT_NE(serial, 0U);
}

TEST(ParallelEngine, ErrorSurfacesFromLowestPartition) {
  for (const int threads : {1, 2}) {
    ParallelEngine group(3, kLookahead, threads);
    group.partition(2).schedule_at(seconds(1.0), [] {
      throw std::runtime_error("partition 2 boom");
    });
    group.partition(1).schedule_at(seconds(1.0), [] {
      throw std::runtime_error("partition 1 boom");
    });
    try {
      group.run();
      FAIL() << "expected the partition error to propagate";
    } catch (const std::runtime_error& e) {
      // Same-window errors surface lowest-partition-first for any thread
      // count, so the caller-visible failure is deterministic.
      EXPECT_STREQ(e.what(), "partition 1 boom");
    }
  }
}

TEST(ParallelEngine, ProcessBodyErrorSurfacesFromTheRun) {
  // A process body that throws on a worker thread fails the parallel run
  // with its own exception; the survivors unwind at destruction.
  for (const int threads : {1, 2}) {
    ParallelEngine group(2, kLookahead, threads);
    group.partition(0).spawn("slow", [](Process& p) {
      for (int i = 0; i < 100; ++i) p.delay(milliseconds(1.0));
    });
    group.partition(1).spawn("boom", [](Process& p) {
      for (int i = 0; i < 5; ++i) p.delay(milliseconds(1.0));
      throw std::runtime_error("rank boom");
    });
    try {
      group.run();
      FAIL() << "expected the process error to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "rank boom");
    }
  }
}

TEST(ParallelEngine, ProcessSuspendedOnAWorkerUnwindsFromTheCaller) {
  // The process last ran on a pool worker; terminate_processes resumes
  // it on the calling thread, which is safe because no state is
  // thread-local.
  bool unwound = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  ParallelEngine group(2, kLookahead, 2);
  group.partition(1).spawn("parked", [&](Process& p) {
    const Sentinel s{&unwound};
    for (int i = 0; i < 3; ++i) p.delay(milliseconds(2.0));
    p.block();
  });
  EXPECT_THROW(group.run(), SimulationError);
  EXPECT_FALSE(unwound);
  group.terminate_processes();
  EXPECT_TRUE(unwound);
}

TEST(ParallelEngine, DetectsCrossPartitionDeadlock) {
  ParallelEngine group(2, kLookahead);
  group.partition(0).spawn("stuck", [](Process& p) { p.block(); });
  group.partition(1).schedule_at(seconds(1.0), [] {});
  EXPECT_THROW(group.run(), SimulationError);
}

TEST(ParallelEngine, TerminateProcessesDropsMailboxPosts) {
  // A mailbox post whose capture owns heap state must be destroyed by
  // terminate_processes (not leaked, not dangling) even though it was
  // never delivered.  Under ASAN this is the regression test for the
  // teardown lifetime sweep.
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  {
    ParallelEngine group(2, kLookahead);
    group.partition(0).spawn("parked", [](Process& p) { p.block(); });
    group.post_at_barrier(1, seconds(10.0), [token] { (void)*token; });
    token.reset();
    EXPECT_FALSE(watch.expired());  // The lane holds the callable.
    group.terminate_processes();
    EXPECT_TRUE(watch.expired());  // Destroyed with referents alive.
    group.terminate_processes();   // Idempotent.
  }
}

TEST(ParallelEngine, DestructorTerminatesBlockedProcesses) {
  // Destruction with a parked process and an undelivered mailbox post
  // must unwind cleanly (the destructor calls terminate_processes).
  ParallelEngine group(2, kLookahead);
  group.partition(0).spawn("parked", [](Process& p) { p.block(); });
  group.post_at_barrier(0, seconds(5.0), [] {});
}

}  // namespace
}  // namespace gearsim::sim
