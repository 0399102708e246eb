#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>
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

WorkerPool::WorkerPool(int threads) : threads_(std::max(threads, 1)) {
  errors_.resize(static_cast<std::size_t>(threads_));
  members_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int id = 1; id < threads_; ++id) {
    members_.emplace_back([this, id] { worker_main(id); });
  }
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& t : members_) t.join();
}

void WorkerPool::run(const std::function<void(int)>& fn) {
  GEARSIM_REQUIRE(fn != nullptr, "WorkerPool::run needs a body");
  if (threads_ == 1) {
    fn(0);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    GEARSIM_REQUIRE(job_ == nullptr, "WorkerPool::run is not reentrant");
    job_ = &fn;
    remaining_ = threads_ - 1;
    std::fill(errors_.begin(), errors_.end(), std::exception_ptr{});
    ++generation_;
  }
  start_cv_.notify_all();
  // The calling thread is worker 0; its error slot is written and read on
  // this thread, the members' slots under mutex_ (released by the final
  // remaining_ == 0 handoff before we read them).
  try {
    fn(0);
  } catch (...) {
    errors_[0] = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return remaining_ == 0; });
  job_ = nullptr;
  for (auto& slot : errors_) {
    if (slot) {
      const std::exception_ptr error = std::exchange(slot, nullptr);
      lock.unlock();
      std::rethrow_exception(error);
    }
  }
}

void WorkerPool::worker_main(int id) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    std::exception_ptr error;
    try {
      (*job)(id);
    } catch (...) {
      error = std::current_exception();
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    errors_[static_cast<std::size_t>(id)] = std::move(error);
    if (--remaining_ == 0) done_cv_.notify_one();
  }
}

}  // namespace gearsim
