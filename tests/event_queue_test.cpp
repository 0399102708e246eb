// Focused tests for the pooled event queue and the small-buffer EventFn:
// FIFO ordering under interleaved push/pop at equal timestamps (the
// const_cast move-from-top regression), a seeded reference model of the
// (time, seq) order, scheduling-time validation, and the inline/heap
// capture paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "util/random.hpp"

namespace gearsim::sim {
namespace {

// Satellite of the kernel rewrite: the old pop() move-constructed from a
// const_cast of the priority_queue top and then called std::pop_heap,
// which compared (and moved) the moved-from entry.  The new pop extracts
// the callable from its pool slot before any re-heapify, so every pop
// must yield a valid, invocable callback in exact (time, seq) order even
// when pops interleave with pushes at equal timestamps.
TEST(EventQueue, InterleavedEqualTimePushesPopFifoWithValidCallbacks) {
  EventQueue q;
  std::vector<int> fired;
  const Seconds t = seconds(1.0);
  q.push(t, [&] { fired.push_back(0); });
  q.push(t, [&] { fired.push_back(1); });

  EventQueue::Popped first = q.pop();
  ASSERT_TRUE(static_cast<bool>(first.fn));
  first.fn();

  // Push more events at the *same* timestamp between pops; they must
  // sort after the still-queued earlier event.
  q.push(t, [&] { fired.push_back(2); });
  q.push(t, [&] { fired.push_back(3); });

  while (!q.empty()) {
    EventQueue::Popped p = q.pop();
    ASSERT_TRUE(static_cast<bool>(p.fn));
    EXPECT_EQ(p.time, t);
    p.fn();
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, PopReportsMonotonicSeqForEqualTimes) {
  EventQueue q;
  for (int i = 0; i < 8; ++i) q.push(seconds(2.0), [] {});
  std::uint64_t prev_seq = 0;
  bool first = true;
  while (!q.empty()) {
    const EventQueue::Popped p = q.pop();
    if (!first) {
      EXPECT_GT(p.seq, prev_seq);
    }
    prev_seq = p.seq;
    first = false;
  }
}

TEST(EventQueue, InterleavedAcrossTimesStaysSorted) {
  EventQueue q;
  std::vector<double> order;
  // Deterministic scatter of timestamps, popping half-way through.
  for (int i = 0; i < 100; ++i) {
    q.push(seconds(static_cast<double>((i * 37) % 50)),
           [&order, i] { order.push_back(static_cast<double>((i * 37) % 50)); });
    if (i % 3 == 2) q.pop().fn();
  }
  while (!q.empty()) q.pop().fn();
  // Events popped after a given pop may predate it (they were pushed
  // later), so global sortedness is not expected — but re-running the
  // remaining queue alone must be sorted.  Check the tail drain instead:
  // drain a fresh queue fully and require sorted order.
  EventQueue q2;
  std::vector<double> drained;
  for (int i = 0; i < 100; ++i) {
    const double t = static_cast<double>((i * 37) % 50);
    q2.push(seconds(t), [&drained, t] { drained.push_back(t); });
  }
  while (!q2.empty()) q2.pop().fn();
  EXPECT_TRUE(std::is_sorted(drained.begin(), drained.end()));
  EXPECT_EQ(drained.size(), 100U);
}

// Seeded reference model.  The model keeps the pending events in push
// order; the first one with the least time is the head of a stable sort
// by time, which is the (time, seq) dispatch order.  The inputs are the
// ones that stress a heap: 1024 events at one instant (a run's spawns,
// a third of them at -0.0), pushes at the current time made while
// popping (wakes), repeated shared future instants (ranks in lockstep),
// and a clear() mid-stream, after which sequence numbering must continue
// where it stopped.  Random distinct times in between exercise every
// heap shape.
TEST(EventQueue, PopOrderMatchesAStableSortByTimeAndSeq) {
  struct Pending {
    double time;
    std::uint64_t seq;
    int id;
  };
  EventQueue q;
  std::vector<Pending> model;
  std::uint64_t next_seq = 0;
  int next_id = 0;
  int fired = -1;
  double now = 0.0;
  std::uint64_t last_seq = 0;
  std::size_t pops = 0;
  Rng rng(18);

  const auto push = [&](double t) {
    const int id = next_id++;
    q.push(seconds(t), [&fired, id] { fired = id; });
    model.push_back(Pending{t, next_seq++, id});
  };
  const auto pop = [&] {
    ASSERT_FALSE(model.empty());
    const auto head = std::min_element(
        model.begin(), model.end(),
        [](const Pending& a, const Pending& b) { return a.time < b.time; });
    EXPECT_EQ(q.next_time(), seconds(head->time));
    EventQueue::Popped p = q.pop();
    EXPECT_EQ(p.time, seconds(head->time));
    EXPECT_EQ(p.seq, head->seq);
    p.fn();
    EXPECT_EQ(fired, head->id);
    now = head->time;
    last_seq = p.seq;
    model.erase(head);
    ++pops;
  };
  /// Pop `n` events; after each, maybe push one at the current time and
  /// maybe one at a shared future instant.
  const auto churn = [&](int n) {
    for (int i = 0; i < n && !model.empty(); ++i) {
      pop();
      if (rng.below(4) == 0) push(now);
      if (rng.below(3) == 0) {
        push(now + 0.25 * static_cast<double>(1 + rng.below(4)));
      }
    }
  };

  // -0.0 passes the time guard and is the same instant as +0.0.
  for (int i = 0; i < 1024; ++i) push(i % 3 == 0 ? -0.0 : 0.0);
  churn(700);
  for (int i = 0; i < 600; ++i) push(now + static_cast<double>(rng.below(5)));
  churn(900);
  // Distinct random times between the ties, so every heap shape occurs.
  for (int i = 0; i < 2000; ++i) {
    push(now + rng.uniform(0.0, 3.0));
    if (i % 2 == 1) pop();
  }

  // Abandon everything pending, as Engine::terminate_processes does.
  const std::uint64_t seq_before_clear = next_seq;
  q.clear();
  model.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  push(now);
  for (int i = 0; i < 299; ++i) push(now + static_cast<double>(rng.below(3)));
  pop();
  EXPECT_EQ(last_seq, seq_before_clear);  // Numbering continues.
  churn(200);
  while (!model.empty()) pop();
  EXPECT_TRUE(q.empty());
  EXPECT_GT(pops, 2000u);
}

TEST(EventQueue, RejectsNonFiniteAndNegativeTimes) {
  EventQueue q;
  EXPECT_THROW(q.push(seconds(std::numeric_limits<double>::quiet_NaN()), [] {}),
               ContractError);
  EXPECT_THROW(q.push(seconds(-std::numeric_limits<double>::infinity()), [] {}),
               ContractError);
  EXPECT_THROW(q.push(seconds(std::numeric_limits<double>::infinity()), [] {}),
               ContractError);
  EXPECT_THROW(q.push(seconds(-1.0), [] {}), ContractError);
  EXPECT_TRUE(q.empty());
  q.push(seconds(0.0), [] {});  // Zero is a valid (start-of-run) time.
  EXPECT_EQ(q.size(), 1U);
}

TEST(EventQueue, EngineRejectsSchedulingBeforeNow) {
  Engine e;
  e.schedule_at(seconds(1.0), [&] {
    EXPECT_THROW(e.schedule_at(seconds(std::nan("")), [] {}), ContractError);
    EXPECT_THROW(e.schedule_at(seconds(0.5), [] {}), ContractError);
  });
  e.run();
}

// --- finite-time guard on the engine's scheduling calls -------------------
// validate_event_time is the single gate: schedule_at and schedule_after
// reject a NaN / infinite / negative time before anything is queued.

TEST(EventQueue, ScheduleAtRejectsNonFiniteTimes) {
  Engine e;
  EXPECT_THROW(e.schedule_at(seconds(std::numeric_limits<double>::quiet_NaN()),
                             [] {}),
               ContractError);
  EXPECT_THROW(e.schedule_at(seconds(std::numeric_limits<double>::infinity()),
                             [] {}),
               ContractError);
  EXPECT_THROW(e.schedule_at(seconds(-1.0), [] {}), ContractError);
}

TEST(EventQueue, ScheduleAfterRejectsNonFiniteDelays) {
  Engine e;
  EXPECT_THROW(
      e.schedule_after(seconds(std::numeric_limits<double>::quiet_NaN()),
                       [] {}),
      ContractError);
  EXPECT_THROW(e.schedule_after(
                   seconds(std::numeric_limits<double>::infinity()), [] {}),
               ContractError);
  EXPECT_THROW(e.schedule_after(seconds(-1.0), [] {}), ContractError);
}

TEST(EventQueue, PoolSlotsAreReusedUnderChurn) {
  EventQueue q;
  for (int i = 0; i < 64; ++i) q.push(seconds(i), [] {});
  const std::size_t warm = q.pool_capacity();
  for (int i = 0; i < 1000; ++i) {
    EventQueue::Popped p = q.pop();
    q.push(p.time + seconds(1.0), [] {});
  }
  EXPECT_EQ(q.pool_capacity(), warm);  // Steady-state churn: no growth.
}

// --- EventFn: inline vs heap capture paths ------------------------------

TEST(EventFn, SmallCapturesStayInline) {
  int hits = 0;
  EventFn f{[&hits] { ++hits; }};
  EXPECT_TRUE(static_cast<bool>(f));
  EXPECT_FALSE(f.on_heap());
  f();
  EXPECT_EQ(hits, 1);
}

TEST(EventFn, OversizedCapturesFallBackToHeapAndStillRun) {
  struct Big {
    double payload[12] = {};  // 96 bytes > kInlineCapacity.
  };
  Big big;
  big.payload[7] = 42.0;
  double seen = 0.0;
  EventFn f{[big, &seen] { seen = big.payload[7]; }};
  EXPECT_TRUE(f.on_heap());
  f();
  EXPECT_DOUBLE_EQ(seen, 42.0);
}

TEST(EventFn, MovePreservesCaptureAndEmptiesSource) {
  auto flag = std::make_shared<int>(0);
  EventFn a{[flag] { ++*flag; }};
  EventFn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(*flag, 1);
  // Captured state is owned: the shared_ptr count reflects one live copy.
  EXPECT_EQ(flag.use_count(), 2);
  EventFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(*flag, 2);
}

TEST(EventFn, InvokingEmptyFnIsAContractError) {
  EventFn f;
  EXPECT_THROW(f(), ContractError);
}

TEST(EventFn, DestroysCaptureExactlyOnce) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  {
    EventFn f{[token] { (void)*token; }};
    token.reset();
    EXPECT_FALSE(watch.expired());  // Capture keeps it alive.
    EventFn g = std::move(f);
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());  // Both shells destroyed; freed once.
}

TEST(EventFn, ExceptionsPropagateOutOfInvocation) {
  EventFn f{[] { throw std::runtime_error("boom"); }};
  EXPECT_THROW(f(), std::runtime_error);
  // The callable survives a throwing invocation (the fault layer's crash
  // events throw NodeFailure through here).
  EXPECT_TRUE(static_cast<bool>(f));
}

}  // namespace
}  // namespace gearsim::sim
