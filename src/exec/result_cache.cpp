#include "exec/result_cache.hpp"

#include <utility>

#include "util/assert.hpp"

namespace gearsim::exec {

ResultCache::ResultCache(Options options) : options_(std::move(options)) {
  GEARSIM_REQUIRE(options_.capacity > 0, "cache capacity must be positive");
  GEARSIM_REQUIRE(options_.shard_digits >= 0 && options_.shard_digits <= 16,
                  "cache shard digits must be in [0, 16], got " +
                      std::to_string(options_.shard_digits));
  if (!options_.disk_dir.empty()) {
    disk_.emplace(DiskStore::Options{options_.disk_dir, options_.shard_digits,
                                     options_.shard_entry_budget},
                  stats_);
  }
}

bool ResultCache::promote_locked(const std::string& key_text,
                                 const cluster::RunResult& result) {
  const auto it = index_.find(key_text);
  if (it != index_.end()) {
    it->second->result = result;
    lru_.splice(lru_.begin(), lru_, it->second);
    return false;
  }
  lru_.push_front(Entry{key_text, result});
  index_[key_text] = lru_.begin();
  if (lru_.size() > options_.capacity) {
    index_.erase(lru_.back().key_text);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return true;
}

std::optional<cluster::RunResult> ResultCache::lookup(const CacheKey& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key.text);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);  // Promote to front.
    ++stats_.hits;
    return it->second->result;
  }
  if (disk_) {
    if (auto from_disk = disk_->read(key)) {
      ++stats_.disk_hits;
      // Promote into memory without re-writing the disk file.
      promote_locked(key.text, *from_disk);
      return from_disk;
    }
  }
  ++stats_.misses;
  return std::nullopt;
}

std::size_t ResultCache::preload() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!disk_) return 0;
  const std::size_t loaded =
      disk_->load_all([this](const std::string& key_text,
                             const cluster::RunResult& result) {
        promote_locked(key_text, result);
      });
  stats_.preloaded += loaded;
  return loaded;
}

void ResultCache::insert(const CacheKey& key,
                         const cluster::RunResult& result) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (promote_locked(key.text, result)) ++stats_.insertions;
  if (disk_) disk_->write(key, result);
}

CacheStats ResultCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t ResultCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

}  // namespace gearsim::exec
