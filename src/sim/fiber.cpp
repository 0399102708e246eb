#include "sim/fiber.hpp"

#include <sys/mman.h>

#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <new>
#include <vector>

#if !defined(__x86_64__)
#error "gearsim fibers support x86-64 only: port gearsim_fiber_switch and gearsim_fiber_entry in src/sim/fiber.cpp"
#endif

#if defined(__SANITIZE_ADDRESS__)
#define GEARSIM_FIBER_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define GEARSIM_FIBER_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GEARSIM_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define GEARSIM_FIBER_TSAN 1
#endif
#endif

#if defined(GEARSIM_FIBER_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(GEARSIM_FIBER_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

// gearsim_fiber_switch(save_sp, load_sp): push the callee-saved state on
// the current stack, store the stack pointer to *save_sp, load load_sp and
// pop the state saved there.  The frame it leaves is, from the stack
// pointer up: MXCSR (4 bytes) and x87 control word (2 bytes) in one
// 8-byte slot, then r15, r14, r13, r12, rbx, rbp and the return address.
//
// gearsim_fiber_entry: where a new fiber's first switch "returns" to.  It
// calls r13(r12), which never returns, and marks the return address
// undefined so unwinders and debuggers stop here.
extern "C" {
void gearsim_fiber_switch(void** save_sp, void* load_sp);
void gearsim_fiber_entry();
}

asm(R"(
  .pushsection .text
  .p2align 4
  .globl gearsim_fiber_switch
  .hidden gearsim_fiber_switch
  .type gearsim_fiber_switch, @function
gearsim_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size gearsim_fiber_switch, .-gearsim_fiber_switch

  .p2align 4
  .globl gearsim_fiber_entry
  .hidden gearsim_fiber_entry
  .type gearsim_fiber_entry, @function
gearsim_fiber_entry:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size gearsim_fiber_entry, .-gearsim_fiber_entry
  .popsection
)");

namespace gearsim::sim {

namespace {

/// One x86-64 base page below the stack, mapped PROT_NONE.
constexpr std::size_t kGuardSize = 4096;

// Sanitizer annotations.  Each wraps one interface call and is empty
// without the sanitizer.

void asan_start_switch([[maybe_unused]] void** fake_stack_save,
                       [[maybe_unused]] const void* bottom,
                       [[maybe_unused]] std::size_t size) {
#if defined(GEARSIM_FIBER_ASAN)
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#endif
}

void asan_finish_switch([[maybe_unused]] void* fake_stack_save,
                        [[maybe_unused]] const void** bottom_old,
                        [[maybe_unused]] std::size_t* size_old) {
#if defined(GEARSIM_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
#endif
}

void* tsan_create() {
#if defined(GEARSIM_FIBER_TSAN)
  return __tsan_create_fiber(0);
#else
  return nullptr;
#endif
}

void tsan_destroy([[maybe_unused]] void* fiber) {
#if defined(GEARSIM_FIBER_TSAN)
  __tsan_destroy_fiber(fiber);
#endif
}

void* tsan_current() {
#if defined(GEARSIM_FIBER_TSAN)
  return __tsan_get_current_fiber();
#else
  return nullptr;
#endif
}

void tsan_switch([[maybe_unused]] void* fiber) {
#if defined(GEARSIM_FIBER_TSAN)
  __tsan_switch_to_fiber(fiber, 0);
#endif
}

constexpr std::size_t kMappingSize = kGuardSize + Fiber::kStackSize;

/// Most stack mappings kept for reuse: enough for a 1024-rank run on each
/// of four sweep workers.  A mapping freed beyond it is unmapped.
constexpr std::size_t kMaxPooledStacks = 4096;

/// Process-wide free list of stack mappings, so a run does not pay mmap,
/// mprotect, first-touch faults and munmap for every process it spawns.
/// A fiber may be built and destroyed on any thread (a sweep worker), so
/// the list is locked; it is never destroyed, so a fiber that outlives
/// static destruction can still return its stack.
class StackPool {
 public:
  // Reserved up front, so give_back (called from ~Fiber) never allocates.
  StackPool() { free_.reserve(kMaxPooledStacks); }

  void* take() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        void* mapping = free_.back();
        free_.pop_back();
#if defined(GEARSIM_FIBER_ASAN)
        // The previous fiber may have left poisoned frame redzones behind.
        __asan_unpoison_memory_region(static_cast<char*>(mapping) + kGuardSize,
                                      Fiber::kStackSize);
#endif
        return mapping;
      }
    }
    return map_stack();
  }

  void give_back(void* mapping) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (free_.size() < kMaxPooledStacks) {
        free_.push_back(mapping);
        return;
      }
    }
    ::munmap(mapping, kMappingSize);
  }

 private:
  static void* map_stack() {
    void* mapping =
        ::mmap(nullptr, kMappingSize, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    if (mapping == MAP_FAILED) throw std::bad_alloc();
    if (::mprotect(mapping, kGuardSize, PROT_NONE) != 0) {
      ::munmap(mapping, kMappingSize);
      throw std::bad_alloc();
    }
    return mapping;
  }

  std::mutex mutex_;
  std::vector<void*> free_;  // Guarded by mutex_.
};

StackPool& stack_pool() {
  static StackPool* const pool = new StackPool;
  return *pool;
}

}  // namespace

Fiber::Fiber(Entry entry, void* arg)
    : entry_(entry), arg_(arg), mapping_(stack_pool().take()) {
  // The first switch_in() pops this frame (see gearsim_fiber_switch) and
  // "returns" into gearsim_fiber_entry with r12 = this, r13 = enter and
  // rbp = 0, which ends frame-pointer walks.  Two padding words above the
  // return address leave the stack 16-byte aligned at its call.
  std::uint32_t mxcsr = 0;
  std::uint16_t fpu_control = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpu_control));
  auto* top = reinterpret_cast<std::uint64_t*>(
      static_cast<char*>(mapping_) + kGuardSize + kStackSize);
  std::uint64_t* frame = top - 10;
  frame[0] = mxcsr | (std::uint64_t{fpu_control} << 32);
  frame[1] = 0;  // r15
  frame[2] = 0;  // r14
  frame[3] = reinterpret_cast<std::uint64_t>(&Fiber::enter);  // r13
  frame[4] = reinterpret_cast<std::uint64_t>(this);          // r12
  frame[5] = 0;  // rbx
  frame[6] = 0;  // rbp
  frame[7] = reinterpret_cast<std::uint64_t>(&gearsim_fiber_entry);
  sp_ = frame;
  tsan_fiber_ = tsan_create();
}

Fiber::~Fiber() {
  tsan_destroy(tsan_fiber_);
  stack_pool().give_back(mapping_);
}

void Fiber::switch_in() {
  started_ = true;
  void* fake_stack = nullptr;
  asan_start_switch(&fake_stack, static_cast<char*>(mapping_) + kGuardSize,
                    kStackSize);
  tsan_caller_ = tsan_current();
  tsan_switch(tsan_fiber_);
  gearsim_fiber_switch(&caller_sp_, sp_);
  asan_finish_switch(fake_stack, nullptr, nullptr);
}

void Fiber::switch_out() {
  void* fake_stack = nullptr;
  asan_start_switch(&fake_stack, caller_stack_bottom_, caller_stack_size_);
  tsan_switch(tsan_caller_);
  gearsim_fiber_switch(&sp_, caller_sp_);
  // Resumed, possibly by another thread: refresh the resumer's bounds.
  asan_finish_switch(fake_stack, &caller_stack_bottom_, &caller_stack_size_);
}

void Fiber::enter(Fiber* self) noexcept {
  asan_finish_switch(nullptr, &self->caller_stack_bottom_,
                     &self->caller_stack_size_);
  self->entry_(self->arg_);
  // Leave for good: a null fake-stack slot tells ASAN this stack is done.
  asan_start_switch(nullptr, self->caller_stack_bottom_,
                    self->caller_stack_size_);
  tsan_switch(self->tsan_caller_);
  gearsim_fiber_switch(&self->sp_, self->caller_sp_);
  std::abort();  // A finished fiber is never switched in again.
}

}  // namespace gearsim::sim
