// Event queue for the discrete-event kernel.
//
// Dispatch order is a hard contract: events fire in strict
// (time, pedigree, insertion sequence) order — earlier times first, ties
// broken by the event's *pedigree* (its birth — the simulated instant it
// was inserted at — then its parent's birth, then its grandparent's),
// then FIFO — which keeps the whole simulation deterministic.  For a
// serially-filled queue the pedigree tiebreaks are vacuous: insertions
// happen while simulated time advances monotonically, so birth is
// non-decreasing in seq; among equal-birth events the inserting parents
// dispatched in seq order at the birth instant, which (applying the same
// argument one level up) makes parent birth non-decreasing too, and
// likewise grandparent birth — (time, pedigree, seq) orders exactly like
// (time, seq), and the golden order hashes in sim_test pin that
// equivalence across kernel rewrites.  (The depth must be *fixed*:
// inheriting an ancestor's tiebreak through same-instant chains is NOT
// monotone in seq and would reorder serial dispatch.)  Every insertion
// path is serial, so the pedigree is redundant with seq; it stays in the
// key because removing it may move the tie order the golden hashes pin.
//
// Layout, chosen for the hot path (a 32-node NAS sweep pushes and pops
// millions of events):
//
//   * Calendar-style epoch buckets instead of a heap.  Far-future events
//     are appended unsorted into fixed-width time bands (one vector per
//     band) — an O(1) append with no comparisons.  Pops drain `current_`,
//     a sorted array holding only the earliest band; when it empties the
//     next non-empty band is sorted (a few hundred contiguous 40-byte
//     keys, cache-resident) and becomes current.  A comparison heap was
//     built and measured first: at depth 1e5 its sift path is memory-
//     latency-bound (~8 dependent cache misses per pop, even with 4-ary
//     layout, packed keys and software prefetch), capping it below the
//     old std::function queue × 2.  The bucket design replaces that
//     pointer-chase with sequential appends and small sorts.
//   * Ordering is boundary-proof: a band is assigned by a monotone
//     floor((t - base)/width) for one fixed (base, width) per epoch, so
//     bands partition time monotonically; each band is sorted by
//     (time, pedigree, seq) before dispatch; events landing below the
//     active band are insertion-sorted into `current_`.  Bucket
//     boundaries therefore affect performance only, never order.
//   * Callables live in a slot pool (vector + free list) reused across
//     events; keys carry the 40-byte (time, pedigree,
//     seq·2^24 | slot) tuple.  After warm-up, push/pop churn allocates
//     nothing (see
//     bench/microbench_engine's allocs-per-event gate) and EventFn's
//     small-buffer optimization keeps captures out of the heap entirely.
//
// Degradation mode: a pathological time distribution (one far outlier
// stretching the epoch) can funnel most keys into one band, making its
// sort large — still correct, amortized O(log n), just less cache-ideal.
// The NAS/Jacobi workloads and the microbench sweep sit far from that
// regime; a multi-rung ladder split is the known upgrade if a workload
// ever hits it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_fn.hpp"
#include "util/assert.hpp"
#include "util/units.hpp"

namespace gearsim::sim {

/// Shared finite-time guard for every event-insertion path.  A NaN time
/// has no place in the (time, seq) total order (every comparison is
/// false), silently corrupting dispatch order; negative and infinite
/// times are always scheduling bugs.  Reject loudly, and reject at the
/// *first* entry point — EventBatch::add as well as EventQueue::push —
/// so a bad time is reported where it was produced, not after the batch
/// has been carried across a wake or crash-arm path.
inline void validate_event_time(Seconds time) {
  GEARSIM_REQUIRE(std::isfinite(time.value()) && time.value() >= 0.0,
                  "event time must be finite and non-negative");
}

/// The causal provenance of an event, used as the dispatch tiebreak
/// between `time` and the FIFO sequence (see the file header): the
/// simulated instant the event was inserted at, its inserting (parent)
/// event's birth, and that event's parent's birth.  All three are
/// monotone in insertion order, so they never change dispatch order.
struct EventPedigree {
  Seconds birth{0.0};
  Seconds parent{0.0};
  Seconds grandparent{0.0};
};

/// Pedigree validity: finite, non-negative, and causally ordered — an
/// ancestor is born no later than its descendant, and an event is born
/// no later than it fires.
inline void validate_event_pedigree(const EventPedigree& p, Seconds time) {
  validate_event_time(p.birth);
  validate_event_time(p.parent);
  validate_event_time(p.grandparent);
  GEARSIM_REQUIRE(p.birth <= time, "event birth after its scheduled time");
  GEARSIM_REQUIRE(p.parent <= p.birth, "parent born after the event");
  GEARSIM_REQUIRE(p.grandparent <= p.parent,
                  "grandparent born after the parent");
}

/// A group of events submitted with one queue operation.  Callers that
/// create several events in one instant (an MPI delivery waking both the
/// receiver and a rendezvous sender, the fault layer arming a crash
/// schedule, the experiment runner starting every rank) batch them so
/// sequence numbers are assigned in submission order with a single call —
/// the dispatch order is exactly what N individual pushes would produce.
/// Reusable: submission drains the items but keeps the capacity.
class EventBatch {
 public:
  void add(Seconds time, EventFn fn) {
    validate_event_time(time);
    items_.push_back(Item{time, std::move(fn)});
  }

  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  void reserve(std::size_t n) { items_.reserve(n); }
  void clear() { items_.clear(); }

  /// Visit the (time, heap-fallback?) metadata of every pending item in
  /// submission order — lets the engine validate times and count the
  /// capture-pool paths without touching the callables.
  template <typename Visitor>
  void visit_meta(Visitor&& v) const {
    for (const Item& item : items_) v(item.time, item.fn.on_heap());
  }

 private:
  friend class EventQueue;
  struct Item {
    Seconds time;
    EventFn fn;
  };
  std::vector<Item> items_;
};

class EventQueue {
 public:
  /// One extracted event.  Extraction moves the callable out of the pool
  /// *before* any container reshuffling, so no moved-from entry is ever
  /// left inside a live container (the old priority_queue + const_cast
  /// pop did exactly that).
  struct Popped {
    Seconds time;
    EventPedigree pedigree;
    std::uint64_t seq = 0;
    EventFn fn;
  };

  /// `pedigree` is the event's insertion provenance (the engine passes
  /// its dispatch state); it is the sort key after `time`, before the
  /// FIFO sequence.  Queue-direct callers may omit it — a constant
  /// pedigree degenerates the order to the classic (time, seq).
  void push(Seconds time, EventFn fn, const EventPedigree& pedigree = {}) {
    const std::uint64_t seq = consume_seq(time, pedigree);
    const std::uint32_t slot = acquire_slot(std::move(fn));
    place(Key{time, pedigree, (seq << kSlotBits) | slot});
  }

  /// Run push()'s checks on an event at `time` born with `pedigree` and
  /// take the sequence number push() would give it, without queueing
  /// anything.  For an event the engine dispatches in place (see
  /// Engine::resume_in_place): the sequence stays exactly what a push
  /// and pop would have produced.
  std::uint64_t consume_seq(Seconds time, const EventPedigree& pedigree) {
    validate(time);
    validate_event_pedigree(pedigree, time);
    GEARSIM_REQUIRE(next_seq_ < (std::uint64_t{1} << kSeqBits),
                    "event sequence space exhausted");
    return next_seq_++;
  }

  /// Submit every event of `batch` with one call, all born with
  /// `pedigree`; sequence numbers are assigned in submission order.
  /// Drains the batch but keeps its capacity, so callers on the hot path
  /// can reuse one instance.
  void push_batch(EventBatch& batch, const EventPedigree& pedigree = {}) {
    for (EventBatch::Item& item : batch.items_) {
      push(item.time, std::move(item.fn), pedigree);
    }
    batch.clear();
  }

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }

  /// Earliest pending event time.  May reorganize internal bands (never
  /// the dispatch order), hence non-const.
  [[nodiscard]] Seconds next_time() {
    GEARSIM_REQUIRE(count_ != 0, "next_time on an empty event queue");
    if (current_.empty()) refill();
    return current_.back().time;
  }

  /// Remove and return the earliest event.
  Popped pop() {
    GEARSIM_REQUIRE(count_ != 0, "pop from an empty event queue");
    if (current_.empty()) refill();
    const Key k = current_.back();
    current_.pop_back();
    --count_;
    if (!current_.empty()) {
      // The next pop's callable lives in a pool slot filled long ago —
      // start the (likely) cache miss now, under this event's execution.
      __builtin_prefetch(&pool_[current_.back().slot()]);
    }
    Popped out{k.time, k.pedigree, k.seq(), std::move(pool_[k.slot()])};
    free_slots_.push_back(k.slot());
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
    current_.clear();
    for (auto& band : bands_) band.clear();
    overflow_.clear();
    pool_.clear();
    free_slots_.clear();
    width_ = 0.0;
    nb_ = 0;
    band_head_ = 0;
    count_ = 0;
  }

 private:
  /// Band sizing per epoch (calendar-queue rule): aim for a handful of
  /// keys per band so the active band stays tiny — pushes that land below
  /// it pay an insertion proportional to its length, and band width must
  /// stay under the typical schedule increment or every push degrades to
  /// that path.  Band vectors are recycled across epochs, so steady-state
  /// churn still allocates nothing once capacities are warm.
  static constexpr std::size_t kTargetBandOccupancy = 8;
  static constexpr std::size_t kMinBands = 16;
  static constexpr std::size_t kMaxBands = std::size_t{1} << 20;
  static constexpr std::uint32_t kSlotBits = 24;  // <= 16.7M queued events
  static constexpr std::uint32_t kSeqBits = 64 - kSlotBits;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;

  /// 40-byte key: the pool slot rides in the low bits of the sequence
  /// word, so comparing `tag` compares insertion order (slots only
  /// differ when sequences do).  The pedigree sits between time and tag
  /// in the order; for a serially-filled queue it is monotone in tag, so
  /// it never changes the serial dispatch order (see the file header).
  struct Key {
    Seconds time;
    EventPedigree pedigree;
    std::uint64_t tag;

    [[nodiscard]] std::uint64_t seq() const { return tag >> kSlotBits; }
    [[nodiscard]] std::uint32_t slot() const {
      return static_cast<std::uint32_t>(tag & kSlotMask);
    }
  };

  static bool earlier(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.pedigree.birth != b.pedigree.birth) {
      return a.pedigree.birth < b.pedigree.birth;
    }
    if (a.pedigree.parent != b.pedigree.parent) {
      return a.pedigree.parent < b.pedigree.parent;
    }
    if (a.pedigree.grandparent != b.pedigree.grandparent) {
      return a.pedigree.grandparent < b.pedigree.grandparent;
    }
    return a.tag < b.tag;
  }
  /// current_ is sorted descending so the earliest key is at the back.
  static bool later(const Key& a, const Key& b) { return earlier(b, a); }

  static void validate(Seconds time) { validate_event_time(time); }

  std::uint32_t acquire_slot(EventFn fn) {
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

  void place(Key k) {
    ++count_;
    if (!(width_ > 0.0)) {
      // No epoch yet (fresh or fully drained queue): stage everything in
      // overflow; the first refill derives (base, width) from the real
      // time spread.
      overflow_.push_back(k);
      return;
    }
    // One fixed monotone band function per epoch — FP error in the
    // boundaries cannot reorder keys, only shift which band sorts them.
    const double band = std::floor((k.time.value() - base_) / width_);
    if (band < static_cast<double>(band_head_)) {
      // Below the active band: belongs among the keys already sorted for
      // dispatch.  Insertion keeps FIFO for equal times (upper_bound).
      current_.insert(
          std::upper_bound(current_.begin(), current_.end(), k, later), k);
    } else if (band < static_cast<double>(nb_)) {
      bands_[static_cast<std::size_t>(band)].push_back(k);
    } else {
      overflow_.push_back(k);
    }
  }

  /// Make current_ non-empty (caller guarantees count_ > 0): advance to
  /// the next non-empty band and sort it; when the epoch is exhausted,
  /// start a new epoch from the overflow staging area.
  void refill() {
    for (;;) {
      while (band_head_ < nb_ && bands_[band_head_].empty()) {
        ++band_head_;
      }
      if (band_head_ < nb_) {
        current_.swap(bands_[band_head_]);  // Recycles both capacities.
        ++band_head_;
        std::sort(current_.begin(), current_.end(), later);
        return;
      }
      GEARSIM_ENSURE(!overflow_.empty(), "event queue lost track of events");
      if (begin_epoch()) return;
    }
  }

  /// Start a new epoch over the overflow staging area.  Returns true if
  /// it filled current_ directly (degenerate zero-width spread).
  bool begin_epoch() {
    double lo = overflow_.front().time.value();
    double hi = lo;
    for (const Key& k : overflow_) {
      lo = std::min(lo, k.time.value());
      hi = std::max(hi, k.time.value());
    }
    base_ = lo;
    band_head_ = 0;
    nb_ = std::clamp(overflow_.size() / kTargetBandOccupancy, kMinBands,
                     kMaxBands);
    if (bands_.size() < nb_) bands_.resize(nb_);  // Never shrinks: reuse.
    const double width = (hi - lo) / static_cast<double>(nb_);
    if (!(width > 0.0)) {
      // All keys at one instant (or a denormal spread): one band.
      width_ = 1.0;
      current_.swap(overflow_);
      std::sort(current_.begin(), current_.end(), later);
      return true;
    }
    width_ = width;
    for (const Key& k : overflow_) {
      const auto band = static_cast<std::size_t>(
          std::min(std::floor((k.time.value() - base_) / width_),
                   static_cast<double>(nb_ - 1)));
      bands_[band].push_back(k);
    }
    overflow_.clear();
    return false;
  }

  std::vector<Key> current_;             ///< Active band, sorted descending.
  std::vector<std::vector<Key>> bands_;  ///< Epoch bands, unsorted.
  std::vector<Key> overflow_;            ///< Beyond the epoch (or no epoch).
  std::vector<EventFn> pool_;
  std::vector<std::uint32_t> free_slots_;
  double base_ = 0.0;                    ///< Epoch origin (seconds).
  double width_ = 0.0;                   ///< Band width; 0 = no epoch.
  std::size_t nb_ = 0;                   ///< Bands in the current epoch.
  std::size_t band_head_ = 0;            ///< First unconsumed band.
  std::size_t count_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace gearsim::sim
