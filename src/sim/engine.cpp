#include "sim/engine.hpp"

#include <cxxabi.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "util/log.hpp"

namespace gearsim::sim {

const ExceptionGlobals* thread_exception_globals() {
  return reinterpret_cast<const ExceptionGlobals*>(abi::__cxa_get_globals());
}

// ---------------------------------------------------------------------------
// Process
// ---------------------------------------------------------------------------

Process::Process(Engine& engine, std::uint32_t index, std::string name,
                 std::function<void(Process&)> body)
    : engine_(engine),
      index_(index),
      name_(std::move(name)),
      body_(std::move(body)),
      fiber_(&Process::run_body, this) {}

// Engine::terminate_processes runs before the engine destroys its
// processes, so by now the fiber has either finished or never started.
Process::~Process() = default;

Seconds Process::now() const { return engine_.now(); }

void Process::run_body(void* self) {
  auto& process = *static_cast<Process*>(self);
  try {
    process.state_ = State::kRunning;
    process.body_(process);
  } catch (const ProcessTerminated&) {
    // Engine teardown: unwind silently.
  } catch (...) {
    process.engine_.process_error_ = std::current_exception();
  }
  // Outside the handler: the fiber must not switch out of a catch block.
  process.state_ = State::kFinished;
}

void Process::resume() { fiber_.switch_in(); }

void Process::require_suspendable() const {
  // The runtime's caught-exception stack and uncaught count are per
  // thread; a fiber that switched out with entries on them would hand
  // them to the engine and to every other process.  Inside a run the
  // engine holds the running thread's copy of both, so the check is two
  // loads instead of a call through the thread-local lookup.
  const ExceptionGlobals* eh = engine_.eh_globals_ != nullptr
                                   ? engine_.eh_globals_
                                   : thread_exception_globals();
  GEARSIM_REQUIRE(
      eh->uncaught_exceptions == 0 && eh->caught_exceptions == nullptr,
      "a process may not suspend while an exception unwinds or inside a "
      "catch block");
}

void Process::yield_to_engine() {
  fiber_.switch_out();
  if (terminate_requested_) throw ProcessTerminated{};
  state_ = State::kRunning;
}

void Process::delay(Seconds d) {
  GEARSIM_REQUIRE(state_ == State::kRunning, "delay() outside process body");
  GEARSIM_REQUIRE(std::isfinite(d.value()) && d.value() >= 0.0,
                  "delay must be finite and non-negative");
  require_suspendable();
  state_ = State::kDelayed;
  // A process being terminated must suspend, so terminate() regains
  // control even if the body swallowed ProcessTerminated.
  if (!terminate_requested_ && engine_.resume_in_place(engine_.now() + d)) {
    state_ = State::kRunning;
    return;
  }
  engine_.schedule_resume(engine_.now() + d, index_);
  yield_to_engine();
}

void Process::block() {
  GEARSIM_REQUIRE(state_ == State::kRunning, "block() outside process body");
  require_suspendable();
  state_ = State::kBlocked;
  yield_to_engine();
}

void Process::wake() {
  GEARSIM_REQUIRE(state_ == State::kBlocked,
                  "wake() targets a process that is not blocked");
  state_ = State::kReady;
  engine_.schedule_resume(engine_.now(), index_);
}

void Process::terminate() {
  if (state_ == State::kFinished) return;
  terminate_requested_ = true;
  if (fiber_.started()) {
    resume();  // The pending delay()/block() throws ProcessTerminated.
  } else {
    state_ = State::kFinished;  // Never ran: there is nothing to unwind.
  }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::~Engine() { terminate_processes(); }

void Engine::terminate_processes() {
  // Unwind the process stacks first — their stack destructors may
  // schedule or reference nothing, but they must not observe a
  // half-destroyed queue — then destroy the dropped pending events while
  // the objects their captures reference (world, meters, stack locals of
  // the aborted run) are still alive.  Leaving them for ~Engine is the
  // bug this ordering fixes: member destruction runs in reverse
  // declaration order, so processes_ (and any later-declared stack
  // objects the captures point at) would already be gone when the pooled
  // callables finally died.
  for (auto& p : processes_) p->terminate();
  queue_.clear();
  // A body that threw while unwinding is not a run failure.
  process_error_ = nullptr;
}

void Engine::schedule_at(Seconds t, EventFn fn) {
  GEARSIM_REQUIRE(t >= now_, "event scheduled in the past");
  count_pool_path(fn.on_heap());
  queue_.push(t, std::move(fn));
  queue_high_water_ = std::max(queue_high_water_, queue_.size());
}

void Engine::schedule_after(Seconds dt, EventFn fn) {
  GEARSIM_REQUIRE(dt.value() >= 0.0, "negative event delay");
  schedule_at(now_ + dt, std::move(fn));
}

void Engine::schedule_resume(Seconds t, std::uint32_t process) {
  count_pool_path(false);  // Counted as the one-pointer callable it replaced.
  queue_.push_resume(t, process);
  queue_high_water_ = std::max(queue_high_water_, queue_.size());
}

void Engine::count_pool_path(bool on_heap) {
  if (on_heap) {
    ++pool_fallback_allocs_;
  } else {
    ++pool_inline_events_;
  }
}

Process& Engine::spawn(std::string name, std::function<void(Process&)> body) {
  GEARSIM_REQUIRE(processes_.size() < EventQueue::kMaxResumeTargets,
                  "too many processes for one engine");
  const auto index = static_cast<std::uint32_t>(processes_.size());
  processes_.push_back(std::unique_ptr<Process>(
      new Process(*this, index, std::move(name), std::move(body))));
  Process& ref = *processes_.back();
  ref.state_ = Process::State::kReady;
  schedule_resume(now_, index);
  return ref;
}

void Engine::begin_event(Seconds time, std::uint64_t seq) {
  now_ = time;
  ++events_executed_;
  // Dispatch-order fingerprint: the time identifies *when*, the insertion
  // seq identifies *which* of several simultaneous events ran — together
  // they pin the exact execution order of the whole run.
  order_hash_ =
      util::fnv1a_mix(order_hash_, std::bit_cast<std::uint64_t>(time.value()));
  order_hash_ = util::fnv1a_mix(order_hash_, seq);
}

void Engine::dispatch_one() {
  EventQueue::Popped ev = queue_.pop();
  begin_event(ev.time, ev.seq);
  if (ev.resume) {
    processes_[ev.process]->resume();
  } else {
    ev.fn();
  }
}

bool Engine::resume_in_place(Seconds t) {
  // Ties go through the queue: an equal-time pending event may order
  // first.  Strictly earlier, the resume event would be the very next
  // one dispatched, so do here everything schedule_at + dispatch_one
  // would have done, minus the queue and the two fiber switches.
  if (!running_ || t > horizon_) return false;
  if (!queue_.empty() && !(t < queue_.next_time())) return false;
  const std::uint64_t seq = queue_.consume_seq(t);
  count_pool_path(false);  // The resume callable is one pointer: inline.
  queue_high_water_ = std::max(queue_high_water_, queue_.size() + 1);
  begin_event(t, seq);
  return true;
}

void Engine::check_deadlock() const {
  for (const auto& p : processes_) {
    if (p->state() == Process::State::kBlocked) {
      std::string blocked;
      for (const auto& q : processes_) {
        if (q->state() == Process::State::kBlocked) {
          if (!blocked.empty()) blocked += ", ";
          blocked += q->name();
        }
      }
      throw SimulationError(
          "simulation deadlock: event queue empty with blocked processes [" +
          blocked + "] at t=" + std::to_string(now().value()) + "s");
    }
  }
}

void Engine::rethrow_process_error() {
  if (process_error_) {
    std::rethrow_exception(std::exchange(process_error_, nullptr));
  }
}

/// Marks the engine running for one run and reads the running thread's
/// exception globals; clears both on every exit, including an event or
/// process body that throws out of the run: the caller may catch and run
/// the same engine again, on another thread.
class Engine::RunScope {
 public:
  explicit RunScope(Engine& engine) : engine_(engine) {
    GEARSIM_REQUIRE(!engine_.running_, "Engine::run is not reentrant");
    engine_.running_ = true;
    engine_.eh_globals_ = thread_exception_globals();
  }
  ~RunScope() {
    engine_.running_ = false;
    engine_.eh_globals_ = nullptr;
  }
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

 private:
  Engine& engine_;
};

void Engine::run() {
  {
    const RunScope running(*this);
    horizon_ = Seconds{std::numeric_limits<double>::infinity()};
    while (!queue_.empty()) {
      dispatch_one();
      rethrow_process_error();
    }
  }
  check_deadlock();
}

void Engine::run_until(Seconds t) {
  {
    const RunScope running(*this);
    horizon_ = t;
    while (!queue_.empty() && queue_.next_time() <= t) {
      dispatch_one();
      rethrow_process_error();
    }
  }
  if (now_ < t && queue_.empty()) now_ = t;
}

}  // namespace gearsim::sim
