#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/argparse.h"
#include "common/telemetry/profile.h"

namespace ht {

unsigned ResolveThreadCount(unsigned requested) {
  // Checked even when `requested` wins: the shared pool is sized from the
  // variable, so a bad value must stop the process before any work runs.
  // Empty reads as 0, like an empty flag value.
  uint64_t from_env = 0;
  if (const char* env = std::getenv("HT_THREADS"); env != nullptr && *env != '\0') {
    if (!ParseUintToken(env, &from_env) || from_env > std::numeric_limits<unsigned>::max()) {
      std::fprintf(stderr, "error: bad HT_THREADS %s (want a whole number of threads)\n", env);
      std::exit(2);
    }
  }
  if (requested != 0) {
    return requested;
  }
  if (from_env != 0) {
    return static_cast<unsigned>(from_env);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(unsigned workers) : workers_(std::max(1u, workers)) {
  threads_.reserve(workers_ - 1);
  for (unsigned t = 1; t < workers_; ++t) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) {
    thread.join();
  }
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(ResolveThreadCount(0));
  return pool;
}

PoolStats ThreadPool::stats() const {
  PoolStats out;
  out.tasks = tasks_.load(std::memory_order_relaxed);
  out.jobs = jobs_.load(std::memory_order_relaxed);
  out.queue_peak = queue_peak_.load(std::memory_order_relaxed);
  out.busy_seconds = static_cast<double>(busy_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  return out;
}

void ThreadPool::ResetStats() {
  tasks_.store(0, std::memory_order_relaxed);
  jobs_.store(0, std::memory_order_relaxed);
  queue_peak_.store(0, std::memory_order_relaxed);
  busy_nanos_.store(0, std::memory_order_relaxed);
}

void ThreadPool::FoldQueuePeak(uint64_t depth) {
  uint64_t peak = queue_peak_.load(std::memory_order_relaxed);
  while (depth > peak &&
         !queue_peak_.compare_exchange_weak(peak, depth, std::memory_order_relaxed)) {
  }
}

bool ThreadPool::RunOneJob(Task& task) {
  if (task.failed.load(std::memory_order_relaxed)) {
    return false;
  }
  const uint64_t i = task.next.fetch_add(1, std::memory_order_relaxed);
  if (i >= task.jobs) {
    return false;
  }
  // Busy-time accounting only reads clocks while the profiler is on; the
  // common (disabled) path pays one relaxed load and one increment.
  const bool timed = Profiler::Global().enabled();
  std::chrono::steady_clock::time_point start{};
  if (timed) [[unlikely]] {
    start = std::chrono::steady_clock::now();
  }
  jobs_.fetch_add(1, std::memory_order_relaxed);
  try {
    (*task.body)(i);
    if (timed) [[unlikely]] {
      const auto elapsed = std::chrono::steady_clock::now() - start;
      busy_nanos_.fetch_add(
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()),
          std::memory_order_relaxed);
    }
    return true;
  } catch (...) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (task.error == nullptr) {
      task.error = std::current_exception();
    }
    task.failed.store(true, std::memory_order_relaxed);
    return false;
  }
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Task* task = nullptr;
    // A task leaves the claimable set monotonically (cursor exhaustion,
    // failure, saturation, caller removal), so waking only on new
    // submissions cannot miss work.
    work_cv_.wait(lock, [&] {
      if (stop_) {
        return true;
      }
      for (Task* candidate : pending_) {
        if (candidate->helpers < candidate->helper_budget &&
            !candidate->failed.load(std::memory_order_relaxed) &&
            candidate->next.load(std::memory_order_relaxed) < candidate->jobs) {
          task = candidate;
          return true;
        }
      }
      return false;
    });
    if (stop_) {
      return;
    }
    ++task->helpers;
    lock.unlock();
    while (RunOneJob(*task)) {
    }
    lock.lock();
    --task->helpers;
    done_cv_.notify_all();
  }
}

void ThreadPool::Run(uint64_t jobs, unsigned max_concurrency,
                     const std::function<void(uint64_t)>& body) {
  if (jobs == 0) {
    return;
  }
  tasks_.fetch_add(1, std::memory_order_relaxed);
  if (jobs == 1 || max_concurrency <= 1 || threads_.empty()) {
    const bool timed = Profiler::Global().enabled();
    std::chrono::steady_clock::time_point start{};
    if (timed) [[unlikely]] {
      start = std::chrono::steady_clock::now();
    }
    jobs_.fetch_add(jobs, std::memory_order_relaxed);
    for (uint64_t i = 0; i < jobs; ++i) {
      body(i);
    }
    if (timed) [[unlikely]] {
      const auto elapsed = std::chrono::steady_clock::now() - start;
      busy_nanos_.fetch_add(
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()),
          std::memory_order_relaxed);
    }
    return;
  }
  Task task;
  task.jobs = jobs;
  task.body = &body;
  task.helper_budget = static_cast<unsigned>(
      std::min<uint64_t>({max_concurrency - 1, jobs - 1, threads_.size()}));
  {
    const std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back(&task);
  }
  FoldQueuePeak(queue_depth_.fetch_add(1, std::memory_order_relaxed) + 1);
  work_cv_.notify_all();
  // Caller participation: claim jobs off the shared cursor until it runs
  // dry. Uneven job lengths still balance, and a nested Run never waits
  // on a helper that will not come.
  while (RunOneJob(task)) {
  }
  std::unique_lock<std::mutex> lock(mu_);
  pending_.erase(std::find(pending_.begin(), pending_.end(), &task));
  queue_depth_.fetch_sub(1, std::memory_order_relaxed);
  done_cv_.wait(lock, [&] { return task.helpers == 0; });
  if (task.error != nullptr) {
    std::rethrow_exception(task.error);
  }
}

void ParallelFor(uint64_t jobs, unsigned threads, const std::function<void(uint64_t)>& body) {
  if (jobs == 0) {
    return;
  }
  threads = static_cast<unsigned>(std::min<uint64_t>(std::max(1u, threads), jobs));
  if (threads == 1 || jobs == 1) {
    for (uint64_t i = 0; i < jobs; ++i) {
      body(i);
    }
    return;
  }
  ThreadPool::Shared().Run(jobs, threads, body);
}

}  // namespace ht
