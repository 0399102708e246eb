// Unit tests for the discrete-event kernel: event ordering, time
// semantics, process scheduling, deadlock detection, and the golden
// event-order hashes that pin the dispatch order across kernel changes.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <functional>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/experiment.hpp"
#include "exec/sweep_runner.hpp"
#include "faults/fault_plan.hpp"
#include "sim/engine.hpp"
#include "workloads/nas.hpp"

namespace gearsim::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.push(seconds(3.0), [&] { fired.push_back(3); });
  q.push(seconds(1.0), [&] { fired.push_back(1); });
  q.push(seconds(2.0), [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsAreFifo) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    q.push(seconds(1.0), [&, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, TimeAdvancesToEventTimestamps) {
  Engine e;
  std::vector<double> seen;
  e.schedule_at(seconds(1.5), [&] { seen.push_back(e.now().value()); });
  e.schedule_at(seconds(0.5), [&] { seen.push_back(e.now().value()); });
  e.run();
  EXPECT_EQ(seen, (std::vector<double>{0.5, 1.5}));
  EXPECT_DOUBLE_EQ(e.now().value(), 1.5);
}

TEST(Engine, ScheduleAfterIsRelative) {
  Engine e;
  double fired_at = -1.0;
  e.schedule_at(seconds(2.0), [&] {
    e.schedule_after(seconds(3.0), [&] { fired_at = e.now().value(); });
  });
  e.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Engine, RejectsPastEvents) {
  Engine e;
  e.schedule_at(seconds(1.0), [&] {
    EXPECT_THROW(e.schedule_at(seconds(0.5), [] {}), ContractError);
  });
  e.run();
}

TEST(Engine, RunUntilStopsAtHorizon) {
  Engine e;
  int fired = 0;
  e.schedule_at(seconds(1.0), [&] { ++fired; });
  e.schedule_at(seconds(10.0), [&] { ++fired; });
  e.run_until(seconds(5.0));
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(e.now().value(), 1.0);
  e.run();  // Drain the rest.
  EXPECT_EQ(fired, 2);
}

TEST(Engine, CountsExecutedEvents) {
  Engine e;
  for (int i = 0; i < 10; ++i) e.schedule_at(seconds(i), [] {});
  e.run();
  EXPECT_EQ(e.events_executed(), 10u);
}

TEST(Process, DelayAdvancesSimTimeOnly) {
  Engine e;
  std::vector<double> stamps;
  e.spawn("p", [&](Process& p) {
    stamps.push_back(p.now().value());
    p.delay(seconds(2.0));
    stamps.push_back(p.now().value());
    p.delay(seconds(0.5));
    stamps.push_back(p.now().value());
  });
  e.run();
  EXPECT_EQ(stamps, (std::vector<double>{0.0, 2.0, 2.5}));
}

TEST(Process, ZeroDelayIsAllowed) {
  Engine e;
  bool done = false;
  e.spawn("p", [&](Process& p) {
    p.delay(seconds(0.0));
    done = true;
  });
  e.run();
  EXPECT_TRUE(done);
}

TEST(Process, NegativeDelayThrows) {
  Engine e;
  e.spawn("p", [&](Process& p) {
    EXPECT_THROW(p.delay(seconds(-1.0)), ContractError);
  });
  e.run();
}

TEST(Process, TwoProcessesInterleaveDeterministically) {
  Engine e;
  std::vector<std::string> order;
  e.spawn("a", [&](Process& p) {
    order.push_back("a0");
    p.delay(seconds(1.0));
    order.push_back("a1");
    p.delay(seconds(2.0));  // Wakes at t=3.
    order.push_back("a3");
  });
  e.spawn("b", [&](Process& p) {
    order.push_back("b0");
    p.delay(seconds(2.0));
    order.push_back("b2");
  });
  e.run();
  EXPECT_EQ(order, (std::vector<std::string>{"a0", "b0", "a1", "b2", "a3"}));
}

TEST(Process, BlockAndWakeHandshake) {
  Engine e;
  std::vector<std::string> order;
  Process& consumer = e.spawn("consumer", [&](Process& p) {
    order.push_back("consumer-blocks");
    p.block();
    order.push_back("consumer-woken@" + std::to_string(p.now().value()));
  });
  e.spawn("producer", [&](Process& p) {
    p.delay(seconds(5.0));
    order.push_back("producer-wakes");
    consumer.wake();
  });
  e.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "consumer-blocks");
  EXPECT_EQ(order[1], "producer-wakes");
  EXPECT_EQ(order[2], "consumer-woken@5.000000");
}

TEST(Process, WakeOnNonBlockedThrows) {
  Engine e;
  Process& a = e.spawn("a", [](Process& p) { p.delay(seconds(1.0)); });
  e.spawn("b", [&](Process&) { EXPECT_THROW(a.wake(), ContractError); });
  e.run();
}

TEST(Engine, DeadlockIsDetected) {
  Engine e;
  e.spawn("stuck", [](Process& p) { p.block(); });
  EXPECT_THROW(e.run(), SimulationError);
}

TEST(Engine, DeadlockMessageNamesProcesses) {
  Engine e;
  e.spawn("rank0", [](Process& p) { p.block(); });
  e.spawn("rank1", [](Process& p) { p.block(); });
  try {
    e.run();
    FAIL() << "expected SimulationError";
  } catch (const SimulationError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("rank0"), std::string::npos);
    EXPECT_NE(what.find("rank1"), std::string::npos);
  }
}

TEST(Engine, ProcessExceptionPropagates) {
  Engine e;
  e.spawn("boom", [](Process& p) {
    p.delay(seconds(1.0));
    throw std::runtime_error("kaboom");
  });
  EXPECT_THROW(e.run(), std::runtime_error);
}

TEST(Engine, ManyProcessesFinish) {
  Engine e;
  int finished = 0;
  for (int i = 0; i < 64; ++i) {
    e.spawn("p" + std::to_string(i), [&, i](Process& p) {
      p.delay(seconds(0.001 * i));
      ++finished;
    });
  }
  e.run();
  EXPECT_EQ(finished, 64);
  EXPECT_EQ(e.process_count(), 64u);
}

TEST(Engine, TeardownWithLiveProcessesDoesNotHang) {
  // An engine destroyed while a process is blocked must terminate the
  // process cleanly (no hang, no crash).
  auto e = std::make_unique<Engine>();
  e->spawn("forever", [](Process& p) { p.block(); });
  try {
    e->run();
  } catch (const SimulationError&) {
    // Expected deadlock; now destroy with the process still blocked.
  }
  e.reset();
  SUCCEED();
}

TEST(Engine, MidRunThrowPropagatesExactlyOnceWithCleanTeardown) {
  // One process throws mid-run while others are still live (one blocked,
  // one delayed far in the future).  Exactly one exception must escape
  // Engine::run, and destroying the engine afterwards must unwind the
  // survivors without hanging or crashing.
  auto e = std::make_unique<Engine>();
  int bodies_completed = 0;
  e->spawn("blocked", [&](Process& p) {
    p.block();
    ++bodies_completed;  // Never reached: nobody wakes it.
  });
  e->spawn("slow", [&](Process& p) {
    p.delay(seconds(100.0));
    ++bodies_completed;
  });
  e->spawn("boom", [](Process& p) {
    p.delay(seconds(1.0));
    throw std::runtime_error("kaboom");
  });
  int exceptions = 0;
  try {
    e->run();
  } catch (const std::runtime_error& err) {
    ++exceptions;
    EXPECT_STREQ(err.what(), "kaboom");
  }
  EXPECT_EQ(exceptions, 1);
  EXPECT_EQ(bodies_completed, 0);
  e.reset();  // Survivors unwound via ProcessTerminated; must not hang.
  SUCCEED();
}

TEST(Engine, TerminateProcessesUnwindsEarlyAndIsIdempotent) {
  // terminate_processes() lets a caller unwind live processes while
  // the objects their stacks reference are still alive (the engine
  // destructor would otherwise do it last).  Stack unwinding must run the
  // process-frame destructors; calling it twice is harmless.
  Engine e;
  bool guard_destroyed = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  e.spawn("parked", [&](Process& p) {
    Sentinel s{&guard_destroyed};
    p.block();
  });
  try {
    e.run();
  } catch (const SimulationError&) {
    // Deadlock: the process is parked forever.
  }
  EXPECT_FALSE(guard_destroyed);
  e.terminate_processes();
  EXPECT_TRUE(guard_destroyed);
  e.terminate_processes();  // Idempotent.
}

TEST(Engine, TerminateProcessesDestroysPendingEventCaptures) {
  // Regression test (run under ASAN in CI): terminate_processes must also
  // destroy the *pending events* — their pooled captures can reference
  // objects (worlds, meters, rank state) that the caller tears down right
  // after the early unwind, so destroying them any later than this is a
  // use-after-free.  The shared_ptr canary pins the destruction point.
  Engine e;
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  e.spawn("parked", [](Process& p) { p.block(); });
  e.schedule_at(seconds(100.0), [token] { (void)*token; });
  token.reset();
  EXPECT_FALSE(watch.expired());  // The queue owns the capture.
  e.terminate_processes();
  EXPECT_TRUE(watch.expired());  // Destroyed at the defined point.
  // The engine is reusable afterwards: the cleared queue must accept and
  // run fresh events (pool and bands were reset, not just emptied).
  int fired = 0;
  e.schedule_at(e.now() + seconds(1.0), [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, ProcessErrorRethrowsRightAfterItsEvent) {
  // A throwing body records its error on the engine, which rethrows it
  // once the event that resumed the body returns: later events stay
  // queued.
  Engine e;
  int later = 0;
  e.spawn("boom", [](Process& p) {
    p.delay(seconds(1.0));
    throw std::runtime_error("kaboom");
  });
  e.schedule_at(seconds(2.0), [&] { ++later; });
  EXPECT_THROW(e.run(), std::runtime_error);
  EXPECT_EQ(e.now(), seconds(1.0));
  EXPECT_EQ(later, 0);
  EXPECT_TRUE(e.has_pending());
}

TEST(Engine, RunAfterAThrowingEventContinuesTheSameEngine) {
  // An event body that throws out of run() must leave the engine
  // runnable: the caller catches and the next run() dispatches the rest.
  Engine e;
  std::vector<int> fired;
  e.schedule_at(seconds(1.0), [&] { fired.push_back(1); });
  e.schedule_at(seconds(2.0), [] { throw std::runtime_error("bad event"); });
  e.schedule_at(seconds(3.0), [&] { fired.push_back(3); });
  EXPECT_THROW(e.run(), std::runtime_error);
  EXPECT_EQ(e.now(), seconds(2.0));
  EXPECT_EQ(fired, (std::vector<int>{1}));
  e.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
  EXPECT_EQ(e.now(), seconds(3.0));
  EXPECT_FALSE(e.has_pending());
}

TEST(Engine, RunUntilAfterAThrowingProcessContinuesTheSameEngine) {
  // The same for a process body under run_until(): the error surfaces
  // once, and the surviving process then runs to completion.
  Engine e;
  bool survivor_done = false;
  e.spawn("boom", [](Process& p) {
    p.delay(seconds(1.0));
    throw std::runtime_error("kaboom");
  });
  e.spawn("survivor", [&](Process& p) {
    p.delay(seconds(2.0));
    p.delay(seconds(2.0));
    survivor_done = true;
  });
  EXPECT_THROW(e.run_until(seconds(10.0)), std::runtime_error);
  EXPECT_EQ(e.now(), seconds(1.0));
  e.run_until(seconds(3.0));
  EXPECT_EQ(e.now(), seconds(2.0));  // The survivor's wakeup is still due.
  EXPECT_FALSE(survivor_done);
  e.run();
  EXPECT_TRUE(survivor_done);
  EXPECT_EQ(e.now(), seconds(4.0));
}

/// Resident set size of this process in KiB (0 if unreadable).
long resident_kib() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  }
  return 0;
}

TEST(Engine, TenThousandProcessesDelayAndFinish) {
  // Fiber stacks commit memory only as they are touched, so 10k live
  // processes cost a few pages each, far below their 1 MiB reservation.
  // Under TSAN every fiber also carries a ~0.9 MB sanitizer context, so
  // that build runs the same path on 1000 processes and skips the bound.
#if defined(__SANITIZE_THREAD__)
  constexpr int kProcesses = 1000;
#else
  constexpr int kProcesses = 10000;
#endif
  Engine e;
  int finished = 0;
  const long rss_before = resident_kib();
  for (int i = 0; i < kProcesses; ++i) {
    e.spawn("p", [&, i](Process& p) {
      p.delay(microseconds(static_cast<double>(i % 97)));
      p.delay(seconds(1.0));
      ++finished;
    });
  }
  e.run_until(seconds(0.5));  // Every process is live and suspended.
#if !defined(__SANITIZE_THREAD__)
  const long kib_per_process = (resident_kib() - rss_before) / kProcesses;
  EXPECT_LT(kib_per_process, static_cast<long>(Fiber::kStackSize / 4 / 1024));
#endif
  e.run();
  EXPECT_EQ(finished, kProcesses);
  EXPECT_EQ(e.process_count(), static_cast<std::size_t>(kProcesses));
  EXPECT_EQ(e.events_executed(), 3u * kProcesses);
}

TEST(Engine, TerminateProcessesHandlesEveryLiveState) {
  // Never started, delayed and blocked processes all end finished; only
  // the ones that ran have frames to unwind.
  Engine e;
  int unwound = 0;
  struct Sentinel {
    int* count;
    ~Sentinel() { ++*count; }
  };
  bool late_body_ran = false;
  Process& delayed = e.spawn("delayed", [&](Process& p) {
    const Sentinel s{&unwound};
    p.delay(seconds(100.0));
  });
  Process& blocked = e.spawn("blocked", [&](Process& p) {
    const Sentinel s{&unwound};
    p.block();
  });
  e.run_until(seconds(1.0));
  Process& unstarted =
      e.spawn("unstarted", [&](Process&) { late_body_ran = true; });
  EXPECT_EQ(delayed.state(), Process::State::kDelayed);
  EXPECT_EQ(blocked.state(), Process::State::kBlocked);
  EXPECT_EQ(unstarted.state(), Process::State::kReady);
  e.terminate_processes();
  EXPECT_EQ(unwound, 2);
  EXPECT_FALSE(late_body_ran);
  EXPECT_TRUE(delayed.finished());
  EXPECT_TRUE(blocked.finished());
  EXPECT_TRUE(unstarted.finished());
  EXPECT_FALSE(e.has_pending());
}

TEST(Process, SuspendingInsideACatchBlockIsRejected) {
  // Processes share the engine thread's caught-exception stack and
  // uncaught count, so they may not suspend inside a handler or in a
  // destructor that runs while an exception unwinds; after the handler
  // they may.  run() and run_until() both read the running thread's
  // exception globals once and check them the same way.
  struct SuspendsWhileDestroyed {
    Process* process;
    int* rejected;
    ~SuspendsWhileDestroyed() {
      try {
        process->delay(seconds(1.0));
      } catch (const ContractError&) {
        ++*rejected;
      }
    }
  };
  for (const bool until : {false, true}) {
    Engine e;
    int rejected = 0;
    e.spawn("p", [&](Process& p) {
      try {
        throw std::runtime_error("handled");
      } catch (const std::runtime_error&) {
        try {
          p.delay(seconds(1.0));
        } catch (const ContractError&) {
          ++rejected;
        }
        try {
          p.block();
        } catch (const ContractError&) {
          ++rejected;
        }
      }
      try {
        const SuspendsWhileDestroyed guard{&p, &rejected};
        throw std::runtime_error("unwinding");
      } catch (const std::runtime_error&) {
      }
      p.delay(seconds(1.0));
    });
    if (until) {
      e.run_until(seconds(5.0));
    } else {
      e.run();
    }
    EXPECT_EQ(rejected, 3) << (until ? "run_until" : "run");
    EXPECT_EQ(e.now(), until ? seconds(5.0) : seconds(1.0));
  }
}

TEST(Process, ExceptionGlobalsAgreeWithTheStdQueries) {
  // The engine reads the exception globals through the Itanium ABI
  // layout; it must see what std::uncaught_exceptions() and
  // std::current_exception() see, in every state a body can be in.
  const ExceptionGlobals* g = thread_exception_globals();
  ASSERT_NE(g, nullptr);
  const auto agrees = [g] {
    return g->uncaught_exceptions ==
               static_cast<unsigned>(std::uncaught_exceptions()) &&
           (g->caught_exceptions != nullptr) ==
               static_cast<bool>(std::current_exception());
  };
  // Normal.
  EXPECT_TRUE(agrees());
  EXPECT_EQ(g->uncaught_exceptions, 0U);
  EXPECT_EQ(g->caught_exceptions, nullptr);
  // Inside a catch block.
  try {
    throw std::runtime_error("caught");
  } catch (const std::runtime_error&) {
    EXPECT_TRUE(agrees());
    EXPECT_NE(g->caught_exceptions, nullptr);
    EXPECT_EQ(g->uncaught_exceptions, 0U);
  }
  EXPECT_EQ(g->caught_exceptions, nullptr);
  // In a destructor during unwinding.
  struct Probe {
    const ExceptionGlobals* globals;
    std::function<bool()> check;
    bool* agreed;
    unsigned* uncaught;
    ~Probe() {
      *agreed = check();
      *uncaught = globals->uncaught_exceptions;
    }
  };
  bool agreed = false;
  unsigned uncaught = 0;
  try {
    const Probe probe{g, agrees, &agreed, &uncaught};
    throw std::runtime_error("unwinding");
  } catch (const std::runtime_error&) {
  }
  EXPECT_TRUE(agreed);
  EXPECT_EQ(uncaught, 1U);
  EXPECT_TRUE(agrees());
}

TEST(Process, StateTransitions) {
  Engine e;
  Process& p = e.spawn("p", [](Process& self) { self.delay(seconds(1.0)); });
  EXPECT_EQ(p.state(), Process::State::kReady);
  e.run();
  EXPECT_EQ(p.state(), Process::State::kFinished);
  EXPECT_TRUE(p.finished());
  EXPECT_EQ(p.name(), "p");
}

// ---------------------------------------------------------------------------
// Delay fast path
//
// A delay whose wakeup is strictly the next event resumes in place, with
// no queue entry and no fiber switch.  Everything observable must match
// the queued path: hashes, counters, the queue high-water mark,
// termination and error behaviour.

/// What a run leaves behind that the fast path must not change.
struct RunPrint {
  std::uint64_t order_hash = 0;
  std::uint64_t events = 0;
  std::uint64_t inline_events = 0;
  double now = 0.0;
  std::size_t queue_high_water = 0;

  bool operator==(const RunPrint&) const = default;
};

RunPrint print_of(const Engine& e) {
  RunPrint out;
  out.order_hash = e.order_hash();
  out.events = e.events_executed();
  out.inline_events = e.pool_inline_events();
  out.now = e.now().value();
  out.queue_high_water = e.queue_high_water();
  return out;
}

// Two chains whose delays mix every case: queued behind a pending event,
// tied with one, and strictly next (at t=3.0 and t=3.5).
const std::vector<std::vector<double>> kChains = {{1.0, 2.0, 0.5, 0.0, 3.0},
                                                  {1.5, 1.5, 0.25, 4.0}};

TEST(DelayFastPath, ProcessChainsMatchScheduledCallbacks) {
  RunPrint as_processes;
  {
    Engine e;
    for (const std::vector<double>& chain : kChains) {
      e.spawn("chain", [&chain](Process& p) {
        for (const double d : chain) p.delay(seconds(d));
      });
    }
    e.schedule_at(seconds(2.5), [] {});
    e.schedule_at(seconds(6.5), [] {});
    e.run();
    as_processes = print_of(e);
  }
  RunPrint as_callbacks;
  {
    Engine e;
    struct Chain {
      Engine* engine;
      const std::vector<double>* delays;
      std::size_t next = 0;
      void step() {
        if (next < delays->size()) {
          engine->schedule_after(seconds((*delays)[next++]),
                                 [this] { step(); });
        }
      }
    };
    std::vector<Chain> chains;
    for (const std::vector<double>& chain : kChains) {
      chains.push_back(Chain{&e, &chain});
    }
    for (Chain& chain : chains) {
      e.schedule_at(seconds(0.0), [&chain] { chain.step(); });
    }
    e.schedule_at(seconds(2.5), [] {});
    e.schedule_at(seconds(6.5), [] {});
    e.run();
    as_callbacks = print_of(e);
  }
  EXPECT_EQ(as_processes, as_callbacks);
  EXPECT_EQ(as_processes.events, 13u);
  EXPECT_GT(as_processes.queue_high_water, 0u);
  EXPECT_EQ(as_processes.inline_events, as_processes.events);
}

TEST(DelayFastPath, DelayTyingWithAPendingEventStaysFifo) {
  Engine e;
  std::vector<std::string> order;
  e.schedule_at(seconds(1.0), [&] { order.push_back("event@1"); });
  e.spawn("p", [&](Process& p) {
    p.delay(seconds(0.5));  // Strictly next: resumes before the event.
    order.push_back("process@0.5");
    p.delay(seconds(0.5));  // Ties: the earlier-inserted event goes first.
    order.push_back("process@1");
  });
  e.run();
  EXPECT_EQ(order, (std::vector<std::string>{"process@0.5", "event@1",
                                             "process@1"}));
}

TEST(DelayFastPath, RunUntilKeepsALaterDelayQueued) {
  Engine e;
  std::vector<double> stamps;
  Process& proc = e.spawn("p", [&](Process& p) {
    p.delay(seconds(2.0));  // Lands on the horizon: dispatched.
    stamps.push_back(p.now().value());
    p.delay(seconds(1.0));  // Past it: stays queued.
    stamps.push_back(p.now().value());
  });
  e.run_until(seconds(2.0));
  EXPECT_EQ(stamps, (std::vector<double>{2.0}));
  EXPECT_EQ(e.now(), seconds(2.0));
  EXPECT_EQ(e.pending_events(), 1u);
  EXPECT_EQ(proc.state(), Process::State::kDelayed);
  e.run();
  EXPECT_EQ(stamps, (std::vector<double>{2.0, 3.0}));
  EXPECT_TRUE(proc.finished());
  EXPECT_EQ(e.events_executed(), 3u);
}

TEST(DelayFastPath, TerminateProcessesUnwindsAfterInPlaceResumes) {
  Engine e;
  bool guard_destroyed = false;
  int steps = 0;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  Process& proc = e.spawn("p", [&](Process& p) {
    Sentinel s{&guard_destroyed};
    for (int i = 0; i < 5; ++i) {
      p.delay(seconds(1.0));  // Nothing else pending: each resumes in place.
      ++steps;
    }
    p.delay(seconds(100.0));  // Beyond the horizon: suspends.
    ++steps;
  });
  e.run_until(seconds(10.0));
  EXPECT_EQ(steps, 5);
  EXPECT_EQ(e.events_executed(), 6u);
  EXPECT_FALSE(guard_destroyed);
  e.terminate_processes();
  EXPECT_TRUE(guard_destroyed);
  EXPECT_TRUE(proc.finished());
  EXPECT_EQ(steps, 5);
}

TEST(DelayFastPath, BadDelaysThrowOnEveryPath) {
  // Under run() with nothing pending every valid delay takes the fast
  // path; under run_until a huge delay would be queued.  Either way a
  // negative or non-finite delay throws and the process stays usable.
  for (const bool bounded : {false, true}) {
    Engine e;
    int rejected = 0;
    bool finished_body = false;
    e.spawn("p", [&](Process& p) {
      for (const double d : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
        try {
          p.delay(seconds(d));
        } catch (const ContractError&) {
          ++rejected;
        }
      }
      p.delay(seconds(1.0));
      finished_body = true;
    });
    if (bounded) {
      e.run_until(seconds(10.0));
    } else {
      e.run();
    }
    EXPECT_EQ(rejected, 3) << "bounded=" << bounded;
    EXPECT_TRUE(finished_body) << "bounded=" << bounded;
    EXPECT_EQ(e.now(), seconds(bounded ? 10.0 : 1.0));
  }
}

// ---------------------------------------------------------------------------
// Event-order determinism
//
// The engine folds every dispatched (time, seq) pair into an FNV-1a
// fingerprint (Engine::order_hash).  These goldens were recorded from the
// NAS workloads on the paper's Athlon cluster *before* the pooled-heap /
// batched-submission kernel rewrite; matching them proves the rewrite
// changed no simulated result — not even the relative order of
// simultaneous events.  If a deliberate scheduling-semantics change ever
// breaks them, re-record and explain the order change in the PR.
// ---------------------------------------------------------------------------

struct GoldenCase {
  const char* name;
  int nodes;
  std::size_t gear;
  std::uint64_t hash;
};

std::unique_ptr<cluster::Workload> make_nas(const std::string& name) {
  if (name == "CG") return std::make_unique<workloads::NasCg>();
  if (name == "EP") return std::make_unique<workloads::NasEp>();
  if (name == "LU") return std::make_unique<workloads::NasLu>();
  return std::make_unique<workloads::NasBt>();
}

/// A run at `gear`, whose order hash fingerprints the global dispatch
/// order.
cluster::RunResult run_serial(const cluster::ExperimentRunner& runner,
                              const cluster::Workload& wl, int nodes,
                              std::size_t gear) {
  return runner.run(wl, nodes, gear);
}

TEST(EngineDeterminism, GoldenEventOrderHashes) {
  const cluster::ExperimentRunner runner(cluster::athlon_cluster());
  const std::vector<GoldenCase> goldens = {
      {"CG", 8, 0, 0x88c377bcb5fff41aULL},
      {"CG", 8, 2, 0x2472f37b43336b62ULL},
      {"EP", 8, 0, 0x2719932f5f75222aULL},
      {"EP", 8, 2, 0x22e075ee8de81bfdULL},
      {"LU", 8, 0, 0xd2cce699ae9b1ef4ULL},
      {"LU", 8, 2, 0xe424ed52919b9b26ULL},
      {"BT", 9, 0, 0x1b4f8cecdee85551ULL},
      {"BT", 9, 2, 0xd868b71733f4f4fbULL},
  };
  for (const GoldenCase& g : goldens) {
    const auto wl = make_nas(g.name);
    const cluster::RunResult r = run_serial(runner, *wl, g.nodes, g.gear);
    EXPECT_EQ(r.event_order_hash, g.hash)
        << g.name << " nodes=" << g.nodes << " gear=" << g.gear;
    EXPECT_NE(r.event_order_hash, 0U);
  }
}

TEST(EngineDeterminism, GoldenCrashAndRendezvousOrderHashes) {
  // The paths that queue several events at one instant: arm_crashes
  // queues the whole crash schedule up front, and a delivery to a posted
  // receive wakes a rendezvous sender and then the receiver.  CG on 8
  // nodes at gear 1 runs 26.02 s.  Two armed crashes either abort it at
  // the first, or both fall after it and dispatch as no-ops.  Lowering the
  // eager threshold to 1 KB sends CG's messages by rendezvous, and 650 of
  // its deliveries wake both ends.
  workloads::NasCg cg;
  const cluster::ExperimentRunner runner(cluster::athlon_cluster());
  struct CrashCase {
    double first;
    cluster::RunOutcome outcome;
    std::uint64_t hash;
  };
  for (const CrashCase& c :
       {CrashCase{8.0, cluster::RunOutcome::kFailed, 0x29782c62b8cdfd7dULL},
        CrashCase{16.0, cluster::RunOutcome::kFailed, 0x85e3237638fe6afbULL},
        CrashCase{60.0, cluster::RunOutcome::kCompleted,
                  0xe00bc4cc495e04e5ULL}}) {
    faults::FaultPlan plan;
    plan.crash(2, seconds(c.first)).crash(5, seconds(c.first * 1.5));
    cluster::RunOptions options;
    options.faults = &plan;
    const cluster::RunResult r = runner.run(cg, 8, options);
    EXPECT_EQ(r.outcome, c.outcome) << "first crash at " << c.first;
    EXPECT_EQ(r.event_order_hash, c.hash) << "first crash at " << c.first;
  }

  cluster::ClusterConfig rendezvous = cluster::athlon_cluster();
  rendezvous.mpi.eager_threshold = kilobytes(1);
  const cluster::ExperimentRunner rendezvous_runner(rendezvous);
  EXPECT_EQ(run_serial(rendezvous_runner, cg, 8, 0).event_order_hash,
            0x854ffca2429e05d4ULL);
  EXPECT_EQ(run_serial(rendezvous_runner, cg, 8, 2).event_order_hash,
            0x6d408d37843dee33ULL);
}

TEST(EngineDeterminism, RepeatedRunsHashIdentically) {
  const cluster::ExperimentRunner runner(cluster::athlon_cluster());
  const workloads::NasCg cg;
  const cluster::RunResult a = run_serial(runner, cg, 8, 0);
  const cluster::RunResult b = run_serial(runner, cg, 8, 0);
  EXPECT_EQ(a.event_order_hash, b.event_order_hash);
  EXPECT_EQ(a.wall.value(), b.wall.value());
  // Different inputs must fingerprint differently (sanity that the hash
  // actually observes the schedule).
  const cluster::RunResult c = run_serial(runner, cg, 8, 2);
  EXPECT_NE(a.event_order_hash, c.event_order_hash);
}

TEST(EngineDeterminism, SweepWorkersDoNotPerturbEventOrder) {
  // The same points, serial and through the parallel sweep executor with
  // four workers, must be event-for-event identical — each point owns its
  // whole simulation, so worker scheduling can never leak into it.  Fiber
  // stacks are pooled process-wide: stacks one worker's run freed are
  // taken by whichever worker spawns next, so under the asan-ubsan and
  // tsan presets this is also the check that a stack crossing threads
  // carries no stale poison and no unordered access.
  const workloads::NasCg cg;
  const cluster::ExperimentRunner direct(cluster::athlon_cluster());
  std::vector<exec::SweepPoint> points;
  for (const int nodes : {2, 4, 8}) {
    for (std::size_t gear = 0; gear < 6; ++gear) {
      points.push_back({&cg, nodes, gear, 0, nullptr});
    }
  }
  exec::SweepOptions options;
  options.jobs = 4;
  const exec::SweepRunner sweep(cluster::athlon_cluster(), options);
  const std::vector<cluster::RunResult> results = sweep.run(points);
  ASSERT_EQ(results.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const cluster::RunResult serial =
        run_serial(direct, cg, points[i].nodes, points[i].gear_index);
    EXPECT_EQ(results[i].event_order_hash, serial.event_order_hash)
        << "nodes=" << points[i].nodes << " gear=" << points[i].gear_index;
    EXPECT_EQ(results[i].wall.value(), serial.wall.value());
  }
}

// ---------------------------------------------------------------------------
// Pooled fiber stacks
//
// A finished process returns its stack to one process-wide pool and the
// next spawn, on any thread, takes it back (across threads:
// EngineDeterminism.SweepWorkersDoNotPerturbEventOrder).  Under the
// asan-ubsan preset this is the check that a reused stack carries no
// stale poison.

/// Run `count` processes that touch a few KiB of stack and pass a token
/// down a chain, each waking the next after a delay.  Returns (order
/// hash, events) and records each body's frame address, which names the
/// stack it ran on.
std::pair<std::uint64_t, std::uint64_t> run_chain(
    int count, std::set<std::uintptr_t>* frames) {
  Engine e;
  std::vector<Process*> chain;
  int token = 0;
  for (int i = 0; i < count; ++i) {
    chain.push_back(&e.spawn("link", [&, i](Process& p) {
      frames->insert(
          reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0)));
      volatile char scratch[4096];
      for (std::size_t b = 0; b < sizeof(scratch); b += 64) {
        scratch[b] = static_cast<char>(i);
      }
      if (i != 0) p.block();
      p.delay(seconds(0.001));
      ++token;
      if (i + 1 < count) chain[static_cast<std::size_t>(i) + 1]->wake();
    }));
  }
  e.run();
  EXPECT_EQ(token, count);
  return {e.order_hash(), e.events_executed()};
}

TEST(FiberStacks, EnginesOnOneThreadReuseTheSameStacks) {
  std::set<std::uintptr_t> first;
  std::set<std::uintptr_t> second;
  const auto a = run_chain(16, &first);
  const auto b = run_chain(16, &second);
  EXPECT_EQ(a, b);
  EXPECT_EQ(first.size(), 16U);
  // The second engine's processes ran on the first engine's stacks.
  EXPECT_EQ(first, second);
  // A longer chain takes those stacks and maps more; run again, it
  // reuses all of them and hashes the same.
  std::set<std::uintptr_t> frames;
  const auto c = run_chain(64, &frames);
  EXPECT_EQ(run_chain(64, &frames), c);
}

}  // namespace
}  // namespace gearsim::sim
