#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "support/check.hpp"

/// Work-stealing thread pool used by the experiment sweeps (STIC
/// enumeration, feasibility cross-checks); sweep::sweep_map is the one
/// caller that splits work into chunks for it.
///
/// Topology: one deque per worker plus one shared queue for external
/// submitters. A worker pushes its own submissions onto its own deque
/// and pops them LIFO (nested-sweep locality); when its deque is empty
/// it drains the shared queue, then steals FIFO from the other workers,
/// and only sleeps when nothing anywhere is runnable.
///
/// Blocking waits issued FROM POOL WORKERS are WORK-ASSISTING
/// (`assist_until`): instead of parking, the waiting worker pops and
/// executes pool tasks — its own deque first, then the shared queue,
/// then steals — until its predicate holds. A pool task may therefore
/// submit sub-tasks and block on their completion (`TaskGroup::wait`)
/// without deadlocking the pool: the blocked worker executes the very
/// tasks it is waiting for. This is what lets nested sweeps (an
/// experiment case running sweep_map inside a pool task) fan out
/// instead of serializing. External threads park instead of helping —
/// they may not run pool tasks, which can block on events only their
/// submitter delivers.
///
/// Design notes (per C++ Core Guidelines CP.*): tasks are plain
/// std::function<void()>; the pool owns its threads (RAII, joined in the
/// destructor); no detached threads. Wakeups go through one epoch
/// counter + condition variable: every submit and every completion
/// bumps the epoch, and sleepers re-scan whenever it moves, so a task
/// enqueued between a scan and the sleep can never be missed.
namespace rdv::support {

class ThreadPool {
 public:
  /// Spawns `threads` workers (default: hardware concurrency, at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Tasks must not throw; exceptions terminate.
  /// Called from a pool worker, the task lands on that worker's own
  /// deque; otherwise on the shared queue. `tag` (never dereferenced)
  /// marks which batch the task belongs to, so an assisting waiter can
  /// restrict itself to the work it actually waits on.
  ///
  /// Returns the task's lifecycle id when the task-event profiler
  /// (obs::task_events_enabled) is on — callers may label the task
  /// (e.g. sweep_map tags chunk tasks with their chunk index) — and 0
  /// when profiling is off.
  std::uint64_t submit(std::function<void()> task,
                       const void* tag = nullptr);

  /// Work-assisting wait: blocks until `done()` returns true. Called
  /// from a pool worker, the worker pops and executes queued tasks
  /// instead of parking (this is the deadlock fix: it drains the tasks
  /// it would otherwise block on) — its own deque first (those are its
  /// current task's descendants), then, RESTRICTED to tasks whose tag
  /// matches `tag` (when non-null), the shared queue and steals from
  /// the other workers. The restriction keeps an assisting worker from
  /// nesting an unrelated heavyweight task inside the wait — unbounded
  /// recursion over foreign work, or inheriting a task that blocks on
  /// an event delivered only after this wait returns. Called from an
  /// external thread it parks, waking on every submit/completion:
  /// external threads must not execute pool tasks at all. `done` is
  /// called with no locks held and must be thread-safe.
  void assist_until(const std::function<bool()>& done,
                    const void* tag = nullptr);

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

  /// Tasks stolen from another worker's deque (monitoring/tests;
  /// cumulative, scheduling-dependent).
  [[nodiscard]] std::uint64_t steal_count() const noexcept {
    return steals_.load(std::memory_order_relaxed);
  }

  /// Times any thread (worker or external waiter) went to sleep on the
  /// epoch cv, and times a sleeper woke from it. The before/after
  /// baseline for the planned per-worker-parking rewrite: the current
  /// single-cv design wakes EVERY sleeper on every submit/completion,
  /// so wakeups per useful task is exactly the thundering-herd factor
  /// this surface is meant to expose. Cumulative, scheduling-dependent.
  [[nodiscard]] std::uint64_t park_count() const noexcept {
    return parks_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t wakeup_count() const noexcept {
    return wakeups_.load(std::memory_order_relaxed);
  }

 private:
  struct Task {
    std::function<void()> fn;
    /// Batch identity for tag-restricted assists; never dereferenced.
    const void* tag = nullptr;
    /// Lifecycle id for the task-event profiler; 0 when profiling was
    /// off at submit time (such tasks record no events at all).
    std::uint64_t id = 0;
  };

  /// One worker's deque. Owner pushes/pops at the back, thieves (other
  /// workers, assisting waiters) pop at the front. unique_ptr keeps the
  /// mutex address stable in the vector.
  struct WorkerQueue {
    RankedMutex mutex{LockRank::kPoolQueue};
    std::deque<Task> tasks;
  };

  static constexpr std::size_t kExternal = static_cast<std::size_t>(-1);

  void worker_loop(std::size_t index);
  /// Pops one runnable task: own deque (when `self` is a worker index,
  /// any tag — own-deque entries are the current task's descendants),
  /// then the shared queue, then steals round-robin from the others.
  /// When `tag` is non-null, shared-queue and steal pops take only
  /// tasks carrying that tag.
  bool try_pop(std::size_t self, Task& task, const void* tag);
  /// Runs a popped task and publishes its completion (in-flight
  /// decrement + epoch bump) so waiters re-check their predicates.
  void run_task(Task& task);
  /// Bumps the wake epoch and wakes sleepers; called after every
  /// enqueue and every completion.
  void bump_epoch();
  [[nodiscard]] std::uint64_t epoch() const;
  /// The calling thread's worker index in THIS pool, or kExternal.
  [[nodiscard]] std::size_t self_index() const noexcept;

  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  RankedMutex shared_mutex_{LockRank::kPoolQueue};
  std::deque<Task> shared_;
  /// Sleep machinery: epoch_/sleepers_/stopping_ guarded by
  /// sleep_mutex_; cv_ wakes on every epoch move. The cv is
  /// condition_variable_any so it waits on the rank-checked mutex
  /// (RDV_CHECKED builds verify park/wake acquisitions like any other).
  mutable RankedMutex sleep_mutex_{LockRank::kPoolSleep};
  std::condition_variable_any cv_;
  std::uint64_t epoch_ = 0;
  std::size_t sleepers_ = 0;
  bool stopping_ = false;
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> parks_{0};
  std::atomic<std::uint64_t> wakeups_{0};
};

/// Completion tracking for ONE batch of tasks on a shared pool.
///
/// The pool itself offers no "wait for everything": that would wait
/// for any concurrent sweep's tasks too, over-synchronizing independent
/// sweeps sharing default_pool(). A TaskGroup counts only the tasks
/// submitted through it, so wait() returns as soon as this group's
/// tasks are done, regardless of what else the pool is running. wait() is
/// work-assisting (it executes pool tasks while the group drains), so
/// it may be called from inside a pool task — nested sweeps cannot
/// deadlock. Reusable: after wait() returns, more tasks may be
/// submitted. The destructor waits for any still-pending tasks.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) noexcept : pool_(pool) {}
  ~TaskGroup() { wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueue a task on the pool, counted against this group. Returns
  /// the pool task's lifecycle id (0 when profiling is off), same as
  /// ThreadPool::submit.
  std::uint64_t submit(std::function<void()> task);

  /// Block until every task submitted through THIS group has finished,
  /// executing pool tasks on the calling thread meanwhile.
  void wait();

  /// Tasks submitted but not yet finished (monitoring/tests).
  [[nodiscard]] std::size_t pending() const noexcept {
    return pending_.load(std::memory_order_acquire);
  }

  /// Identity of this group's tasks on the pool — pass to
  /// ThreadPool::assist_until when waiting on a condition this group's
  /// tasks establish (e.g. the sweep runner's per-chunk slots).
  [[nodiscard]] const void* tag() const noexcept { return this; }

 private:
  ThreadPool& pool_;
  std::atomic<std::size_t> pending_{0};
};

/// Process-wide default pool (lazily constructed).
ThreadPool& default_pool();

}  // namespace rdv::support
