// Stackful fibers: the execution context behind sim::Process.
//
// A Fiber is a function running on its own mmap'd stack that can suspend
// itself (switch_out) and be resumed (switch_in) by whichever thread
// holds it.  A switch is a hand-written x86-64 routine that saves the six
// callee-saved registers plus MXCSR and the x87 control word, swaps the
// stack pointer and returns on the other stack: no syscall, no signal
// mask, no kernel scheduler.  This is the design of SimGrid's "raw"
// context factory.
//
// Invariants the callers rely on:
//   - The stack is kStackSize bytes of MAP_NORESERVE memory above one
//     PROT_NONE guard page, so an overflow faults instead of scribbling
//     over a neighbour; pages are committed only as the fiber touches them.
//   - Stacks are pooled.  ~Fiber returns its mapping to one process-wide,
//     mutex-guarded free list (at most 4096 mappings; beyond that it
//     unmaps), and a new Fiber takes the most recently returned one
//     before it maps a fresh one.  The guard page is set once, when the
//     mapping is made.  A pooled stack keeps the pages its last fiber
//     touched, so the pool holds no more memory than the runs already
//     used, and a run reusing it pays no mmap, mprotect, page faults or
//     munmap.  Under ASAN a reused stack is unpoisoned first.
//   - A fiber is resumed by whichever thread runs its engine, which need
//     not be the thread that created it; that is safe because src/ has no
//     thread_local state.
//   - A fiber must not suspend while an exception is in flight or inside
//     a catch block: the C++ runtime keeps its caught-exception stack per
//     thread, not per fiber (sim::Process enforces this).
//   - Under ASAN and TSAN every switch is annotated, so both sanitizers
//     follow the stack changes; in other builds the annotations compile
//     to nothing.
//
// Only x86-64 is supported; other targets fail to compile with an error
// naming the routines to port.
#pragma once

#include <cstddef>

namespace gearsim::sim {

class Fiber {
 public:
  using Entry = void (*)(void* arg);

  /// Usable stack bytes per fiber (the guard page comes on top).
  static constexpr std::size_t kStackSize = std::size_t{1} << 20;

  /// Take a stack from the pool (or map one) and prepare `entry(arg)` to
  /// run on the first switch_in().  The fiber finishes when `entry`
  /// returns, which it must do without throwing.
  Fiber(Entry entry, void* arg);
  /// Return the stack to the pool.  The fiber must have finished or
  /// never started.
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Run the fiber until it calls switch_out() or its entry returns.
  void switch_in();
  /// From inside the fiber: suspend and return from the switch_in() that
  /// resumed it.
  void switch_out();

  [[nodiscard]] bool started() const { return started_; }

 private:
  [[noreturn]] static void enter(Fiber* self) noexcept;

  Entry entry_;
  void* arg_;
  void* mapping_ = nullptr;    // Guard page, then the stack.
  void* sp_ = nullptr;         // Fiber's stack pointer while suspended.
  void* caller_sp_ = nullptr;  // Resumer's stack pointer while running.
  bool started_ = false;
  // Sanitizer bookkeeping: the resumer's stack bounds (ASAN) and the
  // TSAN contexts of the fiber and its resumer.
  const void* caller_stack_bottom_ = nullptr;
  std::size_t caller_stack_size_ = 0;
  void* tsan_fiber_ = nullptr;
  void* tsan_caller_ = nullptr;
};

}  // namespace gearsim::sim
