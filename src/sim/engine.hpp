// Discrete-event simulation engine with cooperative processes.
//
// One serial engine runs every simulation.  It owns simulated time and an
// event queue dispatched in ascending (time, seq) order: earlier times
// first, simultaneous events in insertion order.  The queue is a 4-ary
// heap of 16-byte keys (see sim/event_queue.hpp); against the calendar
// queue it replaced, it took a 1024-rank SHIFT run from 271 to 226 ms and
// a process handoff among 1024 ranks from 810-1090 to 260-300 ns, on a
// 4-vCPU x86-64 VM.  Simulation actors (MPI ranks, power-meter
// samplers) are either plain timed callbacks or *processes*: user
// functions running as stackful fibers (sim/fiber.hpp) on the thread
// that runs the engine.  Resuming a process is one stack switch into it
// and a suspension is one switch back, so exactly one of the engine or a
// single process executes at any instant, no simulation state needs
// locking and every run is deterministic.
//
// Fast-path invariant: a Process::delay whose wakeup is strictly earlier
// than every pending event (and inside the active run/run_until horizon)
// resumes in place, with no queue entry and no fiber switch.  It is
// still a dispatched event in every observable respect: it takes the
// sequence number a push would have taken, counts toward
// events_executed(), the pool counters and queue_high_water(), and folds
// into order_hash() exactly as dispatching it would have.  A delay that
// ties with a pending event goes through the queue.
//
// Events are queued two ways, from one sequence counter.  Callbacks go
// through schedule_at / schedule_after.  Process resumes (spawn(),
// Process::wake() and a queued Process::delay) go through
// schedule_resume, which queues a resume key: the process index tagged
// in the key itself, with no EventFn to build, move or destroy (bit
// layout in sim/event_queue.hpp).  dispatch_one switches straight into
// the process the key names.  A resume key counts as one inline pool
// event, the one-pointer callable it replaced.  Each queued event takes
// the next sequence number, so callers that create several events at
// one instant (an MPI delivery waking a rendezvous sender and then the
// receiver, the fault layer arming a crash schedule, the runner starting
// every rank) fix their dispatch order by the order of their calls.
//
// Suspension check: delay() and block() refuse to switch out while an
// exception unwinds or inside a catch block.  run() and run_until() read
// the running thread's C++ exception globals (Itanium ABI
// __cxa_eh_globals) once at the start and clear the pointer at the end;
// the check is two loads from it.  Outside a run (the unwinding
// terminate_processes does) it reads the calling thread's globals.
//
// Processes let workload skeletons be written as ordinary blocking code
// (compute / mpi.send / mpi.recv ...), mirroring how real MPI programs
// read, instead of as hand-rolled state machines.
#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/fiber.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"
#include "util/units.hpp"

namespace gearsim::sim {

class Engine;

/// A thread's C++ exception globals, laid out as the Itanium C++ ABI
/// (section 2.2.2) defines __cxa_eh_globals: the top of the thread's
/// caught-exception stack (null outside every catch block) and its count
/// of thrown but not yet caught exceptions.  The engine reads them to
/// refuse a suspension that would carry either into another process.
struct ExceptionGlobals {
  const void* caught_exceptions;
  unsigned int uncaught_exceptions;
};

/// The calling thread's exception globals (abi::__cxa_get_globals()).
/// The runtime updates them in place; the pointer stays valid for the
/// thread's lifetime.
[[nodiscard]] const ExceptionGlobals* thread_exception_globals();

/// A cooperative simulation process.  Created via Engine::spawn; the body
/// receives a reference to its Process and may call delay() / block().
class Process {
 public:
  /// States: only kRunning executes user code; kBlocked awaits wake().
  enum class State { kCreated, kReady, kRunning, kDelayed, kBlocked, kFinished };

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process();

  /// Suspend for `d` of simulated time.  Must be called from the process's
  /// own body, and neither while an exception unwinds nor inside a catch
  /// block (the C++ runtime's caught-exception stack is per thread, and
  /// every process shares the engine's thread).  When the wakeup would be
  /// the next event, the process keeps running (see the file header).
  void delay(Seconds d);

  /// Suspend indefinitely until another actor calls wake().  Used by the
  /// MPI layer to park a rank inside a blocking call.  Same preconditions
  /// as delay().
  void block();

  /// Make a blocked process runnable again at the current simulated time.
  /// Must be called from engine context or another running process.
  void wake();

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] bool finished() const { return state_ == State::kFinished; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Engine& engine() { return engine_; }
  [[nodiscard]] Seconds now() const;

 private:
  friend class Engine;
  Process(Engine& engine, std::uint32_t index, std::string name,
          std::function<void(Process&)> body);

  /// Fiber entry: run the body, recording a failure on the engine.
  static void run_body(void* self);
  /// Throws ContractError when suspending now would corrupt the thread's
  /// exception state (see delay()).
  void require_suspendable() const;
  /// Engine-side: switch into the process until it suspends or finishes.
  void resume();
  /// Process-side: switch back to the engine.
  void yield_to_engine();
  /// Engine-side: request cooperative termination of a live process.
  void terminate();

  Engine& engine_;
  /// Position in the engine's process list: what resume keys name.
  std::uint32_t index_;
  std::string name_;
  std::function<void(Process&)> body_;
  State state_ = State::kCreated;
  bool terminate_requested_ = false;
  Fiber fiber_;
};

/// Exception used internally to unwind a suspended process's stack when
/// the engine terminates it before its body finished: the process's
/// pending delay()/block() throws it, the frames' destructors run, and
/// the fiber's entry catches it.  Never escapes the library.
struct ProcessTerminated {};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  [[nodiscard]] Seconds now() const { return now_; }

  /// Schedule `fn` at absolute simulated time `t >= now()`.
  void schedule_at(Seconds t, EventFn fn);
  /// Schedule `fn` after a non-negative delay.
  void schedule_after(Seconds dt, EventFn fn);

  /// Create a process that starts at the current simulated time.
  Process& spawn(std::string name, std::function<void(Process&)> body);

  /// Run until the event queue drains.  Throws SimulationError if
  /// processes remain blocked with no pending events (deadlock), and
  /// rethrows an exception raised inside a process body right after the
  /// event that resumed it.
  void run();

  /// Run until simulated time would exceed `t`; pending events at later
  /// times remain queued.
  void run_until(Seconds t);

  /// True when events are pending; next_event_time() is the earliest
  /// pending time (precondition: has_pending()).
  [[nodiscard]] bool has_pending() const { return !queue_.empty(); }
  [[nodiscard]] Seconds next_event_time() const { return queue_.next_time(); }
  /// Pending (undispatched) events currently queued.
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Cooperatively unwind every live process now (idempotent; the
  /// destructor calls it too).  A suspended process is resumed once with
  /// ProcessTerminated thrown from its delay()/block(); one that never
  /// ran is marked finished without running its body.  When aborting a
  /// run, call this while the objects the process bodies reference are
  /// still alive — unwinding the process stacks runs destructors that may
  /// touch them, and the pending events dropped from the queue hold pooled
  /// callables whose captures may too, so the queue is cleared here (at a
  /// point where the referents are guaranteed alive) rather than at
  /// ~Engine, which runs after members declared later — and, for a
  /// stack-allocated engine, after every local declared below it — are
  /// already gone.
  void terminate_processes();

  /// Number of processes spawned over the engine's lifetime.
  [[nodiscard]] std::size_t process_count() const { return processes_.size(); }
  /// Number of events executed so far (for microbenchmarks/tests).
  [[nodiscard]] std::uint64_t events_executed() const { return events_executed_; }

  /// Running FNV-1a fingerprint of the dispatch order, the engine's one
  /// event fingerprint: every executed event folds its (time, insertion
  /// seq) pair in.  Two runs of the same scenario are event-for-event
  /// identical iff their hashes match (a probabilistic probe: collisions
  /// are possible but never systematic).  It is the determinism contract
  /// kernel changes are verified against (golden hashes in sim_test,
  /// cross-path checks in the sweep tests).
  [[nodiscard]] std::uint64_t order_hash() const { return order_hash_; }

  /// Events whose capture fit EventFn's inline buffer (the fast path).
  [[nodiscard]] std::uint64_t pool_inline_events() const {
    return pool_inline_events_;
  }
  /// Events whose capture overflowed to a heap allocation.  Kept near
  /// zero by sizing EventFn::kInlineCapacity for the library's real
  /// captures; the microbench_engine baseline gates regressions.
  [[nodiscard]] std::uint64_t pool_fallback_allocs() const {
    return pool_fallback_allocs_;
  }

  /// Most events ever pending at once, counting a fast-path resume as
  /// the one queued event it stands for.
  [[nodiscard]] std::size_t queue_high_water() const {
    return queue_high_water_;
  }

 private:
  friend class Process;
  class RunScope;
  /// Queue a resume of processes_[process] at `t` (a resume key, see
  /// sim/event_queue.hpp); accounted as one inline pool event.
  void schedule_resume(Seconds t, std::uint32_t process);
  void dispatch_one();
  /// Account for one dispatched event: time, counters, order hash.
  void begin_event(Seconds time, std::uint64_t seq);
  /// The fast path of Process::delay: when a resume at `t` would be the
  /// next event the active run dispatches, account for it as dispatched
  /// and return true; the caller keeps running without a fiber switch.
  bool resume_in_place(Seconds t);
  void count_pool_path(bool on_heap);
  void check_deadlock() const;
  void rethrow_process_error();

  EventQueue queue_;
  /// Set by a process body that threw; rethrown after the event that ran it.
  std::exception_ptr process_error_;
  Seconds now_{0.0};
  std::vector<std::unique_ptr<Process>> processes_;
  std::uint64_t events_executed_ = 0;
  std::uint64_t order_hash_ = util::kFnv1aOffset;
  std::uint64_t pool_inline_events_ = 0;
  std::uint64_t pool_fallback_allocs_ = 0;
  std::size_t queue_high_water_ = 0;
  bool running_ = false;
  /// The running thread's exception globals while a run is active, else
  /// null (Process::require_suspendable then reads the calling thread's).
  const ExceptionGlobals* eh_globals_ = nullptr;
  /// Latest event time the active run()/run_until() may dispatch.
  Seconds horizon_{0.0};
};

}  // namespace gearsim::sim
