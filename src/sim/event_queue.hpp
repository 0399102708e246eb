// Event queue for the discrete-event kernel.
//
// Dispatch order is a hard contract: events fire in ascending (time, seq)
// order — earlier times first, simultaneous events in insertion order
// (FIFO) — which keeps the whole simulation deterministic.  The golden
// order hashes in sim_test and cluster_test pin that order across kernel
// rewrites.
//
// Layout, chosen for the hot path (a 1024-rank SHIFT run starts with
// 1024 spawns at t=0, then pushes and pops about 420k events with about
// 600 pending; a fifth of its pushes tie with a pending event's time):
//
//   * A 4-ary min-heap of 16-byte keys.  A key is one unsigned 128-bit
//     integer: the time's bit pattern in the high word and, in the low
//     word, a 39-bit seq, a 1-bit resume tag and a 24-bit target:
//
//         bits 63..25 seq | bit 24 resume | bits 23..0 slot or process
//
//     39 bits number 5.5e11 events per engine.  A finite non-negative
//     double orders like its bit pattern (-0.0 is stored as +0.0), and
//     the tag and target only differ where sequences do, so one integer
//     compare orders (time, seq), with no branch per field.  Picking the
//     earliest of four siblings is a two-round tournament of such
//     compares, which the compiler turns into flag arithmetic and
//     conditional moves.
//   * Why not the calendar queue this heap replaced (epoch time bands, a
//     sorted active band, insertion-sorted pushes below it): it mostly
//     wins on uniformly random times without ties, but ties defeat it.
//     SHIFT on 1024 ranks spawns every rank at t=0, so the first epoch
//     had zero width and one band held the whole run; 99% of pushes took
//     the sorted-insert path into a band of about 580 keys, moving about
//     170 of them each, and push plus memmove took about a quarter of
//     the run.  A heap costs O(log n) in the depth whatever the time
//     spread.
//     Measured on a 4-vCPU x86-64 VM with g++ 12: microbench_engine's
//     queue_ties_1024 row (1024 events on a few shared instants) went
//     from 380-540 ns to 60-68 ns per push+pop, and perfbench
//     coarse_shift1024 from 271 ms to 226 ms per run (medians of 20
//     runs).  The price is paid on the hold-model rows
//     (queue_churn_depth_*, distinct random times): 12% slower at depth
//     1e3, 1.4x at 1e4 and 2.3-2.5x at 1e6 and 1e7 (1e5 is faster).
//   * Resume keys carry no callable.  A key with the resume tag set
//     names an Engine process index in its target field, and the engine
//     switches straight into that process when it pops the key.  Every
//     Process::delay, wake and spawn queues one, so the commonest event
//     builds, moves and destroys no EventFn.  The tag comes out of the
//     sequence field, not the slot field: the slot field must still
//     address 16.7M pooled callables (microbench_engine's depth-10M row).
//   * Callables live in a slot pool (vector + free list) reused across
//     events, so keys stay small and sift moves never touch a callable.
//     After warm-up, push/pop churn allocates nothing (see
//     bench/microbench_engine's allocs-per-event gate) and EventFn's
//     small-buffer optimization keeps captures out of the heap entirely.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_fn.hpp"
#include "util/assert.hpp"
#include "util/units.hpp"

namespace gearsim::sim {

/// Finite-time guard for every event insertion (EventQueue::push and
/// consume_seq).  A NaN time has no place in the (time, seq) total order
/// (every comparison is false), silently corrupting dispatch order;
/// negative and infinite times are always scheduling bugs.  Reject
/// loudly, before anything is queued.
inline void validate_event_time(Seconds time) {
  GEARSIM_REQUIRE(std::isfinite(time.value()) && time.value() >= 0.0,
                  "event time must be finite and non-negative");
}

class EventQueue {
 public:
  /// Process indices a resume key can name.
  static constexpr std::size_t kMaxResumeTargets = std::size_t{1} << 24;

  /// One extracted event: either a resume of process `process` (no
  /// callable) or a callable.  Extraction moves the callable out of the
  /// pool *before* its slot is recycled, so no moved-from entry is ever
  /// left inside a live container.
  struct Popped {
    Seconds time;
    std::uint64_t seq = 0;
    bool resume = false;
    std::uint32_t process = 0;
    EventFn fn;
  };

  void push(Seconds time, EventFn&& fn) {
    const std::uint64_t seq = consume_seq(time);
    const std::uint32_t slot = acquire_slot(std::move(fn));
    sift_up(make_key(time, (seq << kSeqShift) | slot));
  }

  /// Queue a resume of process index `process` (< kMaxResumeTargets) at
  /// `time`: same checks and sequence number as push(), no callable.
  void push_resume(Seconds time, std::uint32_t process) {
    const std::uint64_t seq = consume_seq(time);
    sift_up(make_key(time, (seq << kSeqShift) | kResumeTag | process));
  }

  /// Run push()'s checks on an event at `time` and take the sequence
  /// number push() would give it, without queueing anything.  For an
  /// event the engine dispatches in place (see Engine::resume_in_place):
  /// the sequence stays exactly what a push and pop would have produced.
  std::uint64_t consume_seq(Seconds time) {
    validate_event_time(time);
    GEARSIM_REQUIRE(next_seq_ < (std::uint64_t{1} << kSeqBits),
                    "event sequence space exhausted");
    return next_seq_++;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Earliest pending event time.
  [[nodiscard]] Seconds next_time() const {
    GEARSIM_REQUIRE(!heap_.empty(), "next_time on an empty event queue");
    return time_of(heap_.front());
  }

  /// Remove and return the earliest event.
  Popped pop() {
    GEARSIM_REQUIRE(!heap_.empty(), "pop from an empty event queue");
    const Key top = heap_.front();
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      sift_down(last);
      // The next pop's callable lives in a pool slot filled long ago —
      // start the (likely) cache miss now, under this event's execution.
      if (!is_resume(heap_.front())) {
        __builtin_prefetch(&pool_[target_of(heap_.front())]);
      }
    }
    Popped out;
    out.time = time_of(top);
    out.seq = static_cast<std::uint64_t>(top) >> kSeqShift;
    const std::uint32_t target = target_of(top);
    if (is_resume(top)) {
      out.resume = true;
      out.process = target;
    } else {
      out.fn = std::move(pool_[target]);
      free_slots_.push_back(target);
    }
    return out;
  }

  /// Pool-slot high-water mark (storage reused across events).
  [[nodiscard]] std::size_t pool_capacity() const { return pool_.size(); }

  /// Drop every pending event, destroying the pooled callables *now* —
  /// at the caller's chosen point — instead of at ~EventQueue.
  /// Engine::terminate_processes relies on this: an aborted run's pending
  /// captures may reference stack objects (world, meters) that outlive
  /// the abort but not the engine, so their destructors must run while
  /// those referents are still alive.  Capacities are kept and sequence
  /// numbering continues, so a cleared queue is immediately reusable.
  void clear() {
    heap_.clear();
    pool_.clear();
    free_slots_.clear();
  }

 private:
  using Key = __uint128_t;

  static constexpr std::uint32_t kSlotBits = 24;  // <= 16.7M queued events
  static constexpr std::uint64_t kResumeTag = std::uint64_t{1} << kSlotBits;
  static constexpr std::uint32_t kSeqShift = kSlotBits + 1;
  static constexpr std::uint32_t kSeqBits = 64 - kSeqShift;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;
  static_assert(kMaxResumeTargets == kSlotMask + 1,
                "a resume key's target shares the slot field");
  static constexpr std::size_t kArity = 4;

  static Key make_key(Seconds time, std::uint64_t tag) {
    // -0.0 passes validate_event_time but its sign bit would sort it
    // after every positive time; it is the same instant as +0.0.
    const double t = time.value() == 0.0 ? 0.0 : time.value();
    return (Key{std::bit_cast<std::uint64_t>(t)} << 64) | tag;
  }
  static Seconds time_of(Key k) {
    return Seconds{std::bit_cast<double>(static_cast<std::uint64_t>(k >> 64))};
  }
  static std::uint32_t target_of(Key k) {
    return static_cast<std::uint32_t>(static_cast<std::uint64_t>(k) &
                                      kSlotMask);
  }
  static bool is_resume(Key k) {
    return (static_cast<std::uint64_t>(k) & kResumeTag) != 0;
  }

  std::uint32_t acquire_slot(EventFn&& fn) {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      pool_[slot] = std::move(fn);
      return slot;
    }
    GEARSIM_REQUIRE(pool_.size() < kSlotMask, "event pool exhausted");
    pool_.push_back(std::move(fn));
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }

  /// Append `k` and move it up past every later-ordered ancestor.
  void sift_up(Key k) {
    std::size_t hole = heap_.size();
    heap_.push_back(k);
    while (hole != 0) {
      const std::size_t parent = (hole - 1) / kArity;
      if (!(k < heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = k;
  }

  /// Fill the hole at the root with `k` (the former last key): move the
  /// earliest child up while it orders before `k`.
  void sift_down(Key k) {
    Key* const h = heap_.data();
    const std::size_t n = heap_.size();
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first = hole * kArity + 1;
      std::size_t best;
      if (first + kArity <= n) {
        // All four children exist: a two-round tournament whose first
        // round adds each compare's result to an index.
        const std::size_t a = first + (h[first + 1] < h[first]);
        const std::size_t b = first + 2 + (h[first + 3] < h[first + 2]);
        best = h[b] < h[a] ? b : a;
      } else if (first < n) {
        best = first;
        for (std::size_t c = first + 1; c < n; ++c) {
          if (h[c] < h[best]) best = c;
        }
      } else {
        break;
      }
      if (!(h[best] < k)) break;
      h[hole] = h[best];
      hole = best;
    }
    h[hole] = k;
  }

  std::vector<Key> heap_;
  std::vector<EventFn> pool_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace gearsim::sim
