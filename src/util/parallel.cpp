#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "util/assert.hpp"

namespace gearsim {

int default_jobs() {
  const char* env = std::getenv("GEARSIM_SWEEP_JOBS");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  const long parsed = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || parsed < 1 ||
      parsed > std::numeric_limits<int>::max()) {
    return 1;
  }
  return static_cast<int>(parsed);
}

int resolve_jobs(int jobs) {
  if (jobs == 0) return default_jobs();
  if (jobs < 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
  return jobs;
}

void parallel_for_ordered(int jobs, std::size_t n,
                          const std::function<void(std::size_t)>& fn) {
  GEARSIM_REQUIRE(fn != nullptr, "parallel_for_ordered needs a body");
  jobs = resolve_jobs(jobs);
  if (jobs <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(jobs), n);
  std::atomic<std::size_t> next{0};
  // Fail fast: once any item throws, workers stop claiming new items and
  // drain what they already hold, so no thread is still writing into
  // caller state when the exception surfaces below.
  std::atomic<bool> stop{false};
  // First exception by *item index*, so the caller sees the same error a
  // serial loop would have hit first, regardless of scheduling.  Claim
  // order is index order, so every index below the first thrower was
  // claimed (and therefore runs) before `stop` could be set — the
  // minimum recorded here is the true serial-first failure.
  std::mutex error_mutex;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;

  auto worker = [&] {
    for (;;) {
      if (stop.load(std::memory_order_relaxed)) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        stop.store(true, std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace gearsim
