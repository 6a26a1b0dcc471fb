#include "common/exec_pool.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>

namespace pdc::exec {
namespace {

/// Which worker deque the calling thread owns, or kNotWorker.
constexpr std::uint32_t kNotWorker = ~std::uint32_t{0};
thread_local const ThreadPool* tls_pool = nullptr;
thread_local std::uint32_t tls_worker = kNotWorker;
/// Innermost executing task on this thread (helping nests execution, so
/// run_task saves and restores around the body).
thread_local TaskInfo tls_task;

}  // namespace

TaskInfo current_task() noexcept { return tls_task; }

ThreadPool::ThreadPool(std::uint32_t threads) {
  const std::uint32_t n = std::max<std::uint32_t>(1, threads);
  workers_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(sleep_mu_);
    stop_.store(true, std::memory_order_relaxed);
  }
  sleep_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(Task task, const void* tag) {
  // A worker submits to its own deque (front: depth-first, cache-warm);
  // external threads scatter round-robin so no single deque becomes the
  // bottleneck before stealing kicks in.
  std::uint32_t target;
  if (tls_pool == this && tls_worker != kNotWorker) {
    target = tls_worker;
  } else {
    target = static_cast<std::uint32_t>(
        submitted_.load(std::memory_order_relaxed) % workers_.size());
  }
  // Count the task before it can be popped: a worker may take it as soon
  // as the deque lock drops, and its decrement must never run first (the
  // counter would wrap below zero and the peak read ~2^64).  The deque
  // mutex orders this increment before that decrement.
  const std::uint64_t depth = queued_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::uint64_t peak = queue_peak_.load(std::memory_order_relaxed);
  while (depth > peak &&
         !queue_peak_.compare_exchange_weak(peak, depth,
                                            std::memory_order_relaxed)) {
  }
  {
    std::lock_guard lock(workers_[target]->mu);
    workers_[target]->deque.push_front(Entry{std::move(task), tag});
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  {
    // Pairing the notify with the sleep mutex closes the lost-wakeup
    // window between a worker's empty scan and its cv wait.
    std::lock_guard lock(sleep_mu_);
  }
  sleep_cv_.notify_one();
}

bool ThreadPool::pop_or_steal(std::uint32_t self, const void* tag,
                              Task& out, bool& stolen) {
  // Own deque first, newest-first.  With a tag filter, take the newest
  // matching entry (the deque may hold other groups' tasks in between).
  if (self != kNotWorker) {
    Worker& own = *workers_[self];
    std::lock_guard lock(own.mu);
    for (auto it = own.deque.begin(); it != own.deque.end(); ++it) {
      if (tag != nullptr && it->tag != tag) continue;
      out = std::move(it->fn);
      own.deque.erase(it);
      queued_.fetch_sub(1, std::memory_order_relaxed);
      stolen = false;
      return true;
    }
  }
  // Steal oldest-first from peers, starting after ourselves so victims
  // rotate instead of everyone hammering worker 0.
  const std::uint32_t n = static_cast<std::uint32_t>(workers_.size());
  const std::uint32_t start = self == kNotWorker ? 0 : self + 1;
  for (std::uint32_t k = 0; k < n; ++k) {
    const std::uint32_t victim = (start + k) % n;
    if (victim == self) continue;
    Worker& w = *workers_[victim];
    std::lock_guard lock(w.mu);
    for (auto it = w.deque.rbegin(); it != w.deque.rend(); ++it) {
      if (tag != nullptr && it->tag != tag) continue;
      out = std::move(it->fn);
      w.deque.erase(std::next(it).base());
      queued_.fetch_sub(1, std::memory_order_relaxed);
      // External helper threads (TaskGroup::wait callers) count too: the
      // task still migrated off the deque it was pushed to.
      steals_.fetch_add(1, std::memory_order_relaxed);
      stolen = true;
      return true;
    }
  }
  return false;
}

void ThreadPool::run_task(Task& task, bool stolen) {
  const TaskInfo saved = tls_task;
  tls_task.in_task = true;
  tls_task.worker = tls_pool == this ? tls_worker : kNotWorker;
  tls_task.stolen = stolen;
  // Counted before the body runs: a TaskGroup task signals its waiter from
  // inside the body, so a count taken after it could still be missing when
  // wait() returns and the caller reads stats().
  executed_.fetch_add(1, std::memory_order_relaxed);
  task();
  tls_task = saved;
}

bool ThreadPool::try_run_one(const void* tag) {
  const std::uint32_t self = tls_pool == this ? tls_worker : kNotWorker;
  Task task;
  bool stolen = false;
  if (!pop_or_steal(self, tag, task, stolen)) return false;
  run_task(task, stolen);
  return true;
}

void ThreadPool::worker_loop(std::uint32_t self) {
  tls_pool = this;
  tls_worker = self;
  for (;;) {
    Task task;
    bool stolen = false;
    if (pop_or_steal(self, /*tag=*/nullptr, task, stolen)) {
      run_task(task, stolen);
      continue;
    }
    std::unique_lock lock(sleep_mu_);
    sleep_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_relaxed) ||
             queued_.load(std::memory_order_relaxed) > 0;
    });
    // Shutdown drains: exit only once every deque is empty so queued work
    // still runs (the destructor's contract).
    if (stop_.load(std::memory_order_relaxed) &&
        queued_.load(std::memory_order_relaxed) == 0) {
      return;
    }
  }
}

PoolStats ThreadPool::stats() const noexcept {
  PoolStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.executed = executed_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.queue_peak = queue_peak_.load(std::memory_order_relaxed);
  return s;
}

ThreadPool& ThreadPool::process_pool() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("PDC_THREADS")) {
      const unsigned long v = std::strtoul(env, nullptr, 10);
      if (v > 0) return static_cast<std::uint32_t>(std::min(v, 64ul));
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp<std::uint32_t>(hw, 1, 8);
  }());
  return pool;
}

void TaskGroup::run_captured(const std::function<void()>& fn) noexcept {
  try {
    fn();
  } catch (...) {
    std::lock_guard lock(mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

void TaskGroup::spawn(std::function<void()> fn) {
  if (pool_ == nullptr) {
    run_captured(fn);
    return;
  }
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  pool_->submit(
      [this, fn = std::move(fn)] {
        run_captured(fn);
        // Decrement and notify while holding mu_.  The waiter's exit path
        // (wait_no_throw) also takes mu_ after observing outstanding_==0,
        // so it cannot return — and destroy this group — until this block
        // has released the mutex; without the lock the waiter could free
        // the group between our decrement and the notify.
        std::lock_guard lock(mu_);
        if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          cv_.notify_all();
        }
      },
      /*tag=*/this);
}

void TaskGroup::wait_no_throw() noexcept {
  if (pool_ == nullptr) return;
  while (outstanding_.load(std::memory_order_acquire) > 0) {
    // Help: run queued tasks *of this group* on this thread (the tag
    // filter keeps us from inlining an unrelated whole-request task).  If
    // none is queued, our tasks are mid-execution on other workers —
    // block until the last one signals.
    if (pool_->try_run_one(/*tag=*/this)) continue;
    // Safe to block without re-scanning the deques: if no group task is
    // queued, the outstanding ones are running on pool workers; any they
    // spawn into this group get drained by workers (which never sleep
    // while work is queued), and the final completion signals cv_.
    std::unique_lock lock(mu_);
    cv_.wait(lock, [this] {
      return outstanding_.load(std::memory_order_acquire) == 0;
    });
  }
  // The loop can exit on the bare atomic load while the last task's
  // callback is still inside its mu_-protected decrement/notify block.
  // Taking mu_ here orders our return — and the caller's destruction of
  // this group — after that block has released the mutex.
  std::lock_guard lock(mu_);
}

void TaskGroup::wait() {
  wait_no_throw();
  std::lock_guard lock(mu_);
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (pool == nullptr || n < 2) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  TaskGroup group(pool);
  for (std::size_t i = 0; i < n; ++i) {
    group.spawn([&body, i] { body(i); });
  }
  group.wait();
}

}  // namespace pdc::exec
