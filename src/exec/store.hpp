// The on-disk result store (format v3): its layout, its integrity
// tooling, and DiskStore, the disk tier of ResultCache.  Every decision
// about files lives here — paths, shards, temp names, durable writes,
// quarantine, the eviction ledger and the one directory walk.
//
// Store layout: one text file per cached point, two lines —
//
//   gearsim-store v3 len=<payload bytes> fnv1a=<16 hex digits>\n
//   {"format":<key fmt>,"key":"<canonical key>","result":{...}}\n
//
// The header is written last-byte-exact before the payload, so a reader
// can detect *any* torn state without trusting the payload: a truncated
// write fails the length check, a bit flip fails the FNV-1a checksum
// (util/hash.hpp), a missing header means a pre-v3 (or foreign) file.
// Entries that fail validation are never served; DiskStore quarantines
// them into `<dir>/.quarantine/` and reads them as a miss, so the point
// is recomputed and rewritten.  Writes go to a unique temp name (the
// entry's name plus a `tmp` infix, pid and counter), are fsync'd, then
// atomically renamed into place; temp leftovers from a killed process
// are swept when the next DiskStore opens the store, or by
// `gearsim cache scrub`.
//
// Sharded layout: entries can be spread over subdirectories named by
// the first `shard_digits` hex digits of the key hash
// (`<dir>/<prefix>/<hash>.json`), so per-shard LRU eviction budgets and
// warm-start preloads touch one directory at a time.  The flat layout is
// the degenerate zero-digit case.  One walk — the root plus one level of
// subdirectories, `.quarantine` excluded — serves verify, scrub, the
// temp sweep, stats, preload and budget seeding, so both layouts read
// the same everywhere.  Each shard keeps a `.evicted` ledger file — a
// decimal total of budget evictions — so `gearsim cache stats` can
// report lifetime eviction counts across processes.
//
// `verify_store` / `scrub_store` walk a whole store directory — behind
// the `gearsim cache verify|scrub` CLI — reporting (and, for scrub,
// repairing-by-quarantine) corrupt entries and stale temp files.
// See docs/RESILIENCE.md and docs/SERVICE.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/experiment.hpp"
#include "exec/cache_key.hpp"

namespace gearsim::exec {

/// Store *layout* version (distinct from the cache-key format version in
/// cache_key.hpp): v3 introduced the integrity header; earlier layouts
/// had no header and are quarantined on sight.
inline constexpr int kStoreFormatVersion = 3;

/// Name of the quarantine subdirectory inside a store directory.
inline constexpr const char* kQuarantineDir = ".quarantine";

/// Name of a shard's persistent eviction ledger file.
inline constexpr const char* kEvictionLedger = ".evicted";

/// Render the full file bytes (header + payload) for one entry.
[[nodiscard]] std::string render_store_entry(std::string_view key_text,
                                             const cluster::RunResult& result);

/// Outcome of validating one entry's raw bytes.
struct StoreValidation {
  bool ok = false;
  std::string error;    ///< First failure, empty when ok.
  std::string payload;  ///< The checksummed payload (ok only).
};

/// Validate header shape, payload length, and checksum.  Does not parse
/// the payload JSON.
[[nodiscard]] StoreValidation validate_store_bytes(std::string_view bytes);

/// One store walk's findings.
struct StoreReport {
  std::uint64_t scanned = 0;  ///< Entry files examined.
  std::uint64_t valid = 0;    ///< Passed header+checksum+decode validation.
  std::vector<std::string> corrupt;    ///< Paths that failed validation.
  std::vector<std::string> stale_tmp;  ///< Temp-file leftovers found.
  std::uint64_t quarantined = 0;       ///< scrub only: corrupt entries moved.
  std::uint64_t removed_tmp = 0;       ///< scrub only: temp files removed.

  [[nodiscard]] bool clean() const {
    return corrupt.empty() && stale_tmp.empty();
  }
  /// Human-readable multi-line summary (CLI output).
  [[nodiscard]] std::string to_string() const;
};

/// Walk every entry under `dir` (quarantine excluded), fully validating
/// each (header, length, checksum, and a result-JSON decode).  Covers
/// both the flat and the sharded layout.  Read-only.
[[nodiscard]] StoreReport verify_store(const std::string& dir);

/// verify_store plus repair: corrupt entries are quarantined (so the
/// next sweep recomputes them) and stale temp files removed.
StoreReport scrub_store(const std::string& dir);

/// Per-shard usage figures for `gearsim cache stats` and the daemon's
/// stats query.  `name` is the shard directory name ("." for entries in
/// the store root, i.e. the flat layout).
struct ShardStats {
  std::string name;
  std::uint64_t entries = 0;      ///< `.json` entry files.
  std::uint64_t bytes = 0;        ///< Their on-disk bytes.
  std::uint64_t quarantined = 0;  ///< Files in the shard's .quarantine/.
  std::uint64_t evictions = 0;    ///< Lifetime ledger total.
};

struct StoreStats {
  std::vector<ShardStats> shards;  ///< Name-sorted.

  [[nodiscard]] std::uint64_t total_entries() const;
  [[nodiscard]] std::uint64_t total_bytes() const;
  [[nodiscard]] std::uint64_t total_quarantined() const;
  [[nodiscard]] std::uint64_t total_evictions() const;
};

/// Usage walk (counts and sizes only — no validation; `verify` is the
/// integrity tool).  Shards with no entries but a ledger or quarantine
/// still appear.
[[nodiscard]] StoreStats store_stats(const std::string& dir);

/// ResultCache's hit/miss accounting, readable any time via
/// ResultCache::stats().  The disk-tier fields are counted by DiskStore.
struct CacheStats {
  std::uint64_t hits = 0;        ///< In-memory LRU hits.
  std::uint64_t disk_hits = 0;   ///< Misses satisfied from the disk store.
  std::uint64_t misses = 0;      ///< Neither tier had it (simulate!).
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;   ///< LRU capacity evictions (disk keeps them).
  std::uint64_t disk_evictions = 0;  ///< Shard-budget evictions (this run).
  std::uint64_t preloaded = 0;   ///< Entries warm-started via preload().
  std::uint64_t corrupt = 0;     ///< Disk entries that failed validation.
  std::uint64_t quarantined = 0; ///< Corrupt entries moved to .quarantine/.
  std::uint64_t stale_tmp_swept = 0;  ///< Temp leftovers removed at startup.

  [[nodiscard]] std::uint64_t lookups() const {
    return hits + disk_hits + misses;
  }
};

/// The disk tier of ResultCache: one store directory, read and written
/// one entry at a time.  Opening sweeps temp leftovers and, with a
/// budget, seeds the per-shard bookkeeping from a lexicographic scan, so
/// which entries a later overflow evicts depends only on the store's
/// contents.  Budgets count the entries this process has observed, so
/// concurrent writers may transiently overshoot: a bound on growth, not
/// a hard quota.  Not thread-safe: ResultCache calls it under its mutex.
class DiskStore {
 public:
  struct Options {
    std::string dir;
    /// Hex digits of the key hash naming a shard subdirectory, in
    /// [0, 16]; 0 is the flat layout.
    int shard_digits = 0;
    /// Max entries per shard before least-recently-touched eviction
    /// (0 = unbounded).
    std::size_t shard_entry_budget = 0;
  };

  /// Integrity and budget events are counted into `stats` (its corrupt,
  /// quarantined, disk_evictions and stale_tmp_swept), which must outlive
  /// the store.
  DiskStore(Options options, CacheStats& stats);

  /// The entry stored under `key`, renewing its budget standing.  An
  /// absent file or one stored under another key (a hash collision) is
  /// a plain miss; a corrupt one is quarantined and also misses.  One
  /// open and read per call.
  [[nodiscard]] std::optional<cluster::RunResult> read(const CacheKey& key);

  /// Persist `result` durably (temp file, fsync, atomic rename), then
  /// enforce the shard's budget.  Best-effort: a failed write leaves the
  /// store as it was.
  void write(const CacheKey& key, const cluster::RunResult& result);

  /// Decode every entry in lexicographic path order, handing each to
  /// `sink(key_text, result)` and quarantining corrupt ones; returns how
  /// many were decoded.
  template <typename Sink>
  std::size_t load_all(Sink&& sink) {
    std::size_t loaded = 0;
    for (const std::string& path : sorted_entry_paths()) {
      std::string key_text;
      if (const auto result = load(path, key_text)) {
        sink(key_text, *result);
        ++loaded;
      }
    }
    return loaded;
  }

 private:
  /// Budget bookkeeping for one shard: the touch clock of every known
  /// entry file plus the lifetime total mirrored in its `.evicted`.
  struct ShardState {
    std::unordered_map<std::string, std::uint64_t> touch;  // file → clock
    std::uint64_t evictions = 0;
  };

  [[nodiscard]] std::string shard_name(const CacheKey& key) const;
  [[nodiscard]] std::string shard_dir(const std::string& shard) const;
  [[nodiscard]] std::vector<std::string> sorted_entry_paths() const;
  /// One entry by path, its stored key into `key_text`; a corrupt entry
  /// is quarantined and reads as nullopt.
  std::optional<cluster::RunResult> load(const std::string& path,
                                         std::string& key_text);
  void note_corrupt(const std::string& path, const std::string& reason);
  void touch(const CacheKey& key);
  void enforce_budget(const CacheKey& key);

  Options options_;
  std::unordered_set<std::string> warned_paths_;  // warn once per offender
  std::unordered_map<std::string, ShardState> shards_;  // budget > 0 only
  std::uint64_t touch_clock_ = 0;
  CacheStats& stats_;
};

}  // namespace gearsim::exec
