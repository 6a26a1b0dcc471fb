// Work-stealing execution pool for intra-server parallelism.
//
// The paper's servers overlap region I/O and evaluation; this pool is the
// lever that turns per-server latency from sum-of-regions into
// max-over-workers.  Two layers use it:
//   - QueryServer region loops (full scan, bitmap bin decode, sorted
//     boundary search, conjunct restriction) submit per-region tasks;
//   - ServerRuntime keeps up to K requests per server in flight so one
//     slow query does not head-of-line-block metadata/get-data traffic.
//
// Design: fixed worker count, one mutex-protected deque per worker.  A
// worker pushes and pops its own deque LIFO (cache-warm depth-first) and
// steals FIFO from the backs of its peers (oldest, largest-grained work) —
// the classic work-stealing discipline, with plain mutexes instead of a
// lock-free Chase-Lev deque because tasks here are region-sized (>=
// microseconds) and TSan-provable correctness matters more than nanosecond
// push/pop latency.
//
// Nested parallelism is the norm (a request task spawns region tasks on
// the same pool), so blocking a worker inside TaskGroup::wait() would
// deadlock a size-1 pool.  wait() therefore *helps*: while its tasks are
// outstanding it executes queued tasks of its own group on the waiting
// thread.  Helping is restricted to the waiting group so a region-level
// wait never inlines an unrelated whole-request task (which would add
// that request's full latency to this one and nest handler stacks).
//
// This is the one pool implementation in the tree: the h5lite full-scan
// baseline shares it (one short-lived pool per load/scan, sized to the
// modeled rank count) via parallel_for.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pdc::exec {

/// Execution context of the pool task running on the calling thread, for
/// trace annotation (worker id, steal vs. own-pop).  Thread-local; valid
/// only while a task body is executing.
struct TaskInfo {
  bool in_task = false;      ///< a pool task is executing on this thread
  std::uint32_t worker = ~std::uint32_t{0};  ///< deque owner; ~0 = helper
                                             ///< thread (TaskGroup::wait)
  bool stolen = false;       ///< task migrated off the deque it was pushed to
};

/// Context of the innermost pool task on this thread (zero-initialized
/// when none is running).
[[nodiscard]] TaskInfo current_task() noexcept;

/// Lifetime counters (atomically maintained, monotone).
struct PoolStats {
  std::uint64_t submitted = 0;   ///< tasks accepted
  std::uint64_t executed = 0;    ///< tasks run (counted as each starts)
  std::uint64_t steals = 0;      ///< tasks taken from another worker's deque
  std::uint64_t queue_peak = 0;  ///< high-water mark of queued (not yet
                                 ///< started) tasks
};

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Spawns `threads` workers (clamped to >= 1).
  explicit ThreadPool(std::uint32_t threads);

  /// Drains every queued task (shutdown-with-queued-work still runs the
  /// work — submitters may be waiting on side effects), then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(workers_.size());
  }

  /// Enqueue a task.  Tasks must not throw (wrap user code in TaskGroup,
  /// which captures exceptions and rethrows from wait()).  Safe from any
  /// thread, including pool workers (goes to the local deque, LIFO).
  /// `tag` labels the task for filtered helping (TaskGroup passes its own
  /// address); workers ignore it.
  void submit(Task task, const void* tag = nullptr);

  /// Execute one queued task on the calling thread; false if none was
  /// eligible.  With a null `tag` any queued task qualifies; with a tag
  /// only tasks submitted under that tag do.  This is the "helping"
  /// primitive TaskGroup::wait uses so nested parallel sections cannot
  /// deadlock, even at pool size 1 — the tag filter keeps a region-level
  /// wait from inlining an unrelated whole-request task (which would
  /// inflate its latency and nest handler stacks).
  bool try_run_one(const void* tag = nullptr);

  [[nodiscard]] PoolStats stats() const noexcept;

  /// Process-wide shared pool, created on first use.  Sized by the
  /// PDC_THREADS environment variable; defaults to the hardware
  /// concurrency (clamped to [1, 8] so a laptop does not oversubscribe).
  static ThreadPool& process_pool();

 private:
  /// A queued task plus the helping tag it was submitted under.
  struct Entry {
    Task fn;
    const void* tag = nullptr;
  };
  struct Worker {
    std::mutex mu;
    std::deque<Entry> deque;  ///< front = newest (LIFO pop), back = steal end
  };

  void worker_loop(std::uint32_t self);
  bool pop_or_steal(std::uint32_t self, const void* tag, Task& out,
                    bool& stolen);
  /// Run `task` with thread-local TaskInfo published for current_task(),
  /// restoring the previous context afterwards (helping nests tasks).
  void run_task(Task& task, bool stolen);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  /// Sleep coordination: workers block here when every deque is empty.
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::atomic<std::uint64_t> queued_{0};  ///< tasks pushed, not yet popped
  std::atomic<bool> stop_{false};

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> queue_peak_{0};
};

/// Fork-join scope over a pool.  spawn() forks tasks; wait() helps run
/// queued work until every spawned task finished, then rethrows the first
/// captured exception.  With a null pool, spawn() runs inline (serial
/// fallback, used when a server is configured without parallelism).
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) noexcept : pool_(pool) {}
  ~TaskGroup() { wait_no_throw(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void spawn(std::function<void()> fn);

  /// Blocks (helping) until all spawned tasks completed; rethrows the
  /// first exception any task threw.
  void wait();

 private:
  void run_captured(const std::function<void()>& fn) noexcept;
  void wait_no_throw() noexcept;

  ThreadPool* pool_;
  std::atomic<std::uint64_t> outstanding_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  std::exception_ptr first_error_;  ///< guarded by mu_
};

/// Run body(i) for i in [0, n): one pool task per index when `pool` is
/// non-null, inline otherwise.  Blocks until every index completed.  The
/// per-index granularity is deliberate — callers pass region-sized work
/// items, and per-region tasks are what lets an imbalanced region list
/// load-balance across workers.
void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace pdc::exec
