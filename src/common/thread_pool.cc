#include "common/thread_pool.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <string>

namespace mm2::common {

std::size_t ResolveThreadCount(std::size_t requested) {
  std::size_t resolved = requested;
  if (resolved == 0) {
    // Only a whole, in-range positive integer counts; anything else
    // ("4abc", an overflowing value) leaves the variable unset.
    if (const char* env = std::getenv("MM2_THREADS")) {
      char* end = nullptr;
      errno = 0;
      long parsed = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && errno != ERANGE && parsed > 0) {
        resolved = static_cast<std::size_t>(parsed);
      }
    }
  }
  if (resolved == 0) resolved = 1;
  return std::min<std::size_t>(resolved, 256);
}

ThreadPool::ThreadPool(std::size_t threads) : size_(std::max<std::size_t>(threads, 1)) {
  if (size_ <= 1) return;
  queues_.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    shutting_down_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Enqueue(std::function<void()> task) {
  std::size_t target =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mu);
    queues_[target]->tasks.push_back(std::move(task));
  }
  pending_.fetch_add(1, std::memory_order_relaxed);
  wake_cv_.notify_one();
}

bool ThreadPool::TryRunOne(std::size_t worker_index) {
  std::function<void()> task;
  // Own deque first (back = LIFO, most recently pushed, warmest cache)...
  {
    WorkerQueue& own = *queues_[worker_index];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.back());
      own.tasks.pop_back();
    }
  }
  // ...then steal from the front (FIFO, oldest) of the other deques.
  if (!task) {
    for (std::size_t offset = 1; offset < queues_.size() && !task; ++offset) {
      WorkerQueue& victim =
          *queues_[(worker_index + offset) % queues_.size()];
      std::lock_guard<std::mutex> lock(victim.mu);
      if (!victim.tasks.empty()) {
        task = std::move(victim.tasks.front());
        victim.tasks.pop_front();
      }
    }
  }
  if (!task) return false;
  pending_.fetch_sub(1, std::memory_order_relaxed);
  task();
  return true;
}

void ThreadPool::WorkerLoop(std::size_t worker_index) {
  for (;;) {
    if (TryRunOne(worker_index)) continue;
    std::unique_lock<std::mutex> lock(wake_mu_);
    if (shutting_down_) return;
    if (pending_.load(std::memory_order_relaxed) > 0) continue;
    wake_cv_.wait(lock, [this] {
      return shutting_down_ || pending_.load(std::memory_order_relaxed) > 0;
    });
    if (shutting_down_) return;
  }
}

void ThreadPool::ParallelFor(
    std::size_t total,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (total == 0) return;
  std::size_t chunks = std::min(size_, total);
  if (chunks <= 1 || workers_.empty()) {
    fn(0, total, 0);
    return;
  }
  std::size_t base = total / chunks;
  std::size_t extra = total % chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  std::size_t begin = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    std::size_t len = base + (c < extra ? 1 : 0);
    std::size_t end = begin + len;
    futures.push_back(Submit([&fn, begin, end, c] { fn(begin, end, c); }));
    begin = end;
  }
  for (auto& future : futures) future.get();
}

}  // namespace mm2::common
