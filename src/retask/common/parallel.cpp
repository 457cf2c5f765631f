#include "retask/common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "retask/common/error.hpp"
#include "retask/obs/metrics.hpp"

namespace retask {
namespace {

std::atomic<int> g_jobs_override{0};

int detect_jobs() {
  if (const char* env = std::getenv("RETASK_JOBS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) return static_cast<int>(parsed);
    return 1;  // malformed or <= 0: fail safe to sequential
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// Re-entrancy guard: a parallel_for issued from inside a worker (or from a
// callback already running under parallel_for) degrades to the inline path
// instead of deadlocking on the pool.
thread_local bool t_in_parallel_for = false;

/// Reusable worker pool. Workers are started lazily on first parallel use
/// and persist for the process lifetime; each parallel region publishes a
/// (fn, n) pair plus a shared ticket counter and wakes the workers, the
/// calling thread participates, and the region ends when every participant
/// has drained the counter.
class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  void run(std::size_t n, const std::function<void(std::size_t)>& fn, int jobs) {
    RETASK_SCOPED_TIMER("parallel.region_ns");
    RETASK_COUNT("parallel.regions", 1);
    RETASK_GAUGE_MAX("parallel.max_jobs", jobs);
    const int helpers = jobs - 1;  // the caller is participant #0
    std::unique_lock<std::mutex> region(region_mutex_);
    ensure_workers(helpers);

    {
      std::lock_guard<std::mutex> lock(mutex_);
      fn_ = &fn;
      total_ = n;
      // Chunked ticketing: each fetch_add claims a run of indices instead of
      // one, cutting contention on the counter for fine-grained items. The
      // chunk is capped so every participant still sees ~8 claims (load
      // balance) and at 64 so a straggler never holds too much work.
      chunk_ = std::max<std::size_t>(
          1, std::min<std::size_t>(64, n / (static_cast<std::size_t>(jobs) * 8)));
      next_.store(0, std::memory_order_relaxed);
      pending_helpers_ = helpers;
      active_helpers_ = helpers;
      failed_index_ = std::numeric_limits<std::size_t>::max();
      failure_ = nullptr;
      ++generation_;
    }
    work_ready_.notify_all();

    drain(/*helper=*/false);

    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_done_.wait(lock, [&] { return active_helpers_ == 0; });
      fn_ = nullptr;
      if (failure_) std::rethrow_exception(failure_);
    }
  }

 private:
  ThreadPool() = default;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
      ++generation_;
    }
    work_ready_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  void ensure_workers(int helpers) {
    std::lock_guard<std::mutex> lock(mutex_);
    while (static_cast<int>(workers_.size()) < helpers) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  void worker_loop() {
    t_in_parallel_for = true;
    std::uint64_t seen_generation = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_ready_.wait(lock, [&] { return generation_ != seen_generation || stopping_; });
        if (stopping_) return;
        seen_generation = generation_;
        if (pending_helpers_ == 0) continue;  // late joiner: region fully staffed
        --pending_helpers_;
      }
      drain(/*helper=*/true);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (--active_helpers_ == 0) work_done_.notify_all();
      }
    }
  }

  void drain(bool helper) {
    (void)helper;
    const std::function<void(std::size_t)>& fn = *fn_;
    const std::size_t n = total_;
    // Items claimed by this participant; flushed once per drain so the hot
    // ticket loop never touches the registry. The helper/caller split shows
    // how much of the region's work actually ran off the calling thread —
    // the pool-utilization signal the bench runner reports.
    RETASK_OBS_ONLY(std::uint64_t claimed = 0; std::uint64_t chunks = 0;)
    const std::size_t chunk = chunk_;
    while (true) {
      const std::size_t start = next_.fetch_add(chunk, std::memory_order_relaxed);
      if (start >= n) break;
      const std::size_t stop = std::min(n, start + chunk);
      RETASK_OBS_ONLY(claimed += stop - start; ++chunks;)
      // Per-item catch so one failure neither takes down its chunk-mates nor
      // loses the smallest-failed-index guarantee.
      for (std::size_t i = start; i < stop; ++i) {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex_);
          if (i < failed_index_) {
            failed_index_ = i;
            failure_ = std::current_exception();
          }
        }
      }
    }
    RETASK_COUNT("parallel.items", claimed);
    RETASK_COUNT("parallel.chunks", chunks);
    RETASK_OBS_ONLY(if (helper) { RETASK_COUNT("parallel.items_helper", claimed); })
  }

  std::mutex region_mutex_;  // one parallel region at a time

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  std::vector<std::thread> workers_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t total_ = 0;
  std::size_t chunk_ = 1;
  std::atomic<std::size_t> next_{0};
  std::uint64_t generation_ = 0;
  int pending_helpers_ = 0;
  int active_helpers_ = 0;
  bool stopping_ = false;
  std::size_t failed_index_ = std::numeric_limits<std::size_t>::max();
  std::exception_ptr failure_;
};

}  // namespace

int default_jobs() {
  const int override_jobs = g_jobs_override.load(std::memory_order_relaxed);
  if (override_jobs >= 1) return override_jobs;
  return detect_jobs();
}

void set_default_jobs(int jobs) {
  require(jobs >= 0, "set_default_jobs: jobs must be >= 0 (0 = auto)");
  g_jobs_override.store(jobs, std::memory_order_relaxed);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn, int jobs) {
  require(jobs >= 0, "parallel_for: jobs must be >= 0 (0 = auto)");
  if (jobs == 0) jobs = default_jobs();
  if (static_cast<std::size_t>(jobs) > n) jobs = static_cast<int>(n);

  if (jobs <= 1 || t_in_parallel_for) {
    RETASK_COUNT("parallel.regions_inline", 1);
    RETASK_COUNT("parallel.items", n);
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  t_in_parallel_for = true;
  try {
    ThreadPool::instance().run(n, fn, jobs);
  } catch (...) {
    t_in_parallel_for = false;
    throw;
  }
  t_in_parallel_for = false;
}

}  // namespace retask
