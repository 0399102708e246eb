// Content-addressed cache of simulated RunResults.
//
// Keyed by CacheKey (exec/cache_key.hpp): the canonical text is the
// identity, the FNV-1a hash only buckets and names files.  Two tiers:
//
//  * in-memory LRU (default 4096 entries) — hot within one process;
//  * optional on-disk store (exec/store.hpp DiskStore), one file per
//    point in the v3 integrity format — warm across processes (bench
//    reruns, CLI invocations, model refits).
//
// This class is the memory tier plus that one DiskStore member; every
// decision about files — layout, shards, per-shard budgets and their
// `.evicted` ledgers, durable writes, quarantine, the temp sweep at
// construction — belongs to exec/store.  The disk tier can be *sharded*
// (`shard_digits = N > 0`: `<dir>/<first N hex digits>/<hash-hex>.json`)
// with an optional per-shard entry budget; `preload()` warm-starts the
// memory tier from disk at daemon boot.  See docs/SERVICE.md.
//
// On every lookup the stored key text is compared against the probe's:
// a 64-bit hash collision therefore degrades to a miss, never a wrong
// result.  Disk entries are validated before being trusted: a truncated,
// bit-flipped, hand-edited or stale-format entry is quarantined, logged
// once per offending path, counted in CacheStats, and treated as a
// miss — the point recomputes and rewrites a clean entry.
// Thread-safe; lookup/insert take one mutex, which also guards the
// DiskStore (simulation time dwarfs it by orders of magnitude).  See
// docs/RESILIENCE.md.
#pragma once

#include <cstddef>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "cluster/experiment.hpp"
#include "exec/cache_key.hpp"
#include "exec/store.hpp"

namespace gearsim::exec {

class ResultCache {
 public:
  struct Options {
    /// Max in-memory entries before LRU eviction.
    std::size_t capacity = 4096;
    /// When non-empty, the on-disk store directory (created on first
    /// insert; e.g. "out/cache").  Empty = memory-only.
    std::string disk_dir;
    /// Hex digits of the key hash that name a shard subdirectory, in
    /// [0, 16] (anything else is a ContractError).  0 = the flat legacy
    /// layout, byte-identical to pre-shard stores.  Both layouts read
    /// interchangeably — a probe only looks under its own shard path, so
    /// switching digits on an existing store makes old entries invisible
    /// (recomputed), never wrong.
    int shard_digits = 0;
    /// Max on-disk entries per shard before least-recently-touched
    /// eviction (0 = unbounded).  With shard_digits == 0 the store root
    /// is the single shard.
    std::size_t shard_entry_budget = 0;
  };

  ResultCache() : ResultCache(Options{}) {}
  explicit ResultCache(Options options);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Look `key` up: memory first, then disk (a disk hit is promoted into
  /// memory).  Unreadable, corrupt (quarantined), or mismatched disk
  /// entries count as misses.
  [[nodiscard]] std::optional<cluster::RunResult> lookup(const CacheKey& key);

  /// Insert (or refresh) `result` under `key` in memory, and — when a
  /// disk_dir is configured — persist it durably (write temp, fsync,
  /// atomic rename).
  void insert(const CacheKey& key, const cluster::RunResult& result);

  /// Warm-start: decode every readable disk entry (lexicographic path
  /// order, so the resulting LRU order is deterministic) into the memory
  /// tier, newest-position-last capped by `capacity`.  Corrupt entries
  /// are quarantined exactly as a lookup would.  Returns how many
  /// entries were loaded.  No-op without a disk_dir.
  std::size_t preload();

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const Options& options() const { return options_; }

 private:
  struct Entry {
    std::string key_text;
    cluster::RunResult result;
  };
  using LruList = std::list<Entry>;

  /// Move `key_text` to the LRU front with `result`, evicting past
  /// capacity; true when the key was not cached yet.  Caller holds mutex_.
  bool promote_locked(const std::string& key_text,
                      const cluster::RunResult& result);

  Options options_;
  mutable std::mutex mutex_;
  LruList lru_;  // front = most recent
  std::unordered_map<std::string, LruList::iterator> index_;
  std::optional<DiskStore> disk_;  // With a disk_dir only; guarded by mutex_.
  CacheStats stats_;
};

}  // namespace gearsim::exec
