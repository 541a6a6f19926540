#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "support/check.hpp"

/// Thread pool used by the experiment sweeps (STIC enumeration,
/// feasibility cross-checks); sweep::sweep_map is the one caller that
/// splits work into chunks for it.
///
/// Topology: one FIFO queue, one mutex and one condition variable.
/// Every submit appends to the queue; idle workers pop its front and
/// only sleep when it is empty.
///
/// Blocking waits issued FROM POOL WORKERS are WORK-ASSISTING
/// (`assist_until`): instead of parking, the waiting worker pops and
/// executes queued tasks of the batch it waits on until its predicate
/// holds. A pool task may therefore submit sub-tasks and block on their
/// completion (`TaskGroup::wait`) without deadlocking the pool: the
/// blocked worker executes the very tasks it is waiting for. External
/// threads park instead of helping — they may not run pool tasks,
/// which can block on events only their submitter delivers.
///
/// Design notes (per C++ Core Guidelines CP.*): tasks are plain
/// std::function<void()>; the pool owns its threads (RAII, joined in the
/// destructor). Every submit and every completion bumps a wake epoch,
/// and sleepers re-scan whenever it moves, so a task enqueued between a
/// scan and the sleep can never be missed.
namespace rdv::support {

class ThreadPool {
 public:
  /// Spawns `threads` workers (default: hardware concurrency, at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task at the back of the queue. Tasks must not throw;
  /// exceptions terminate. `tag` (never dereferenced) marks which batch
  /// the task belongs to, so an assisting waiter can restrict itself to
  /// the work it actually waits on.
  ///
  /// Returns the task's lifecycle id when the task-event profiler
  /// (obs::task_events_enabled) is on — callers may label the task
  /// (e.g. sweep_map tags chunk tasks with their chunk index) — and 0
  /// when profiling is off.
  std::uint64_t submit(std::function<void()> task,
                       const void* tag = nullptr);

  /// Work-assisting wait: blocks until `done()` returns true. Called
  /// from a pool worker, the worker executes queued tasks whose tag
  /// matches `tag` (any task when null) instead of parking, so it drains
  /// the tasks it would otherwise block on. The restriction keeps it
  /// from nesting unrelated work inside the wait: unbounded recursion,
  /// or a task that blocks on an event delivered only after this wait
  /// returns. Called from an external thread it parks, waking on every
  /// submit/completion. `done` is called with no locks held and must be
  /// thread-safe.
  void assist_until(const std::function<bool()>& done,
                    const void* tag = nullptr);

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

  /// Always 0: the pool has one queue, so no task is stolen. Kept for
  /// perfbench's `sched.steals`, which reads it.
  [[nodiscard]] std::uint64_t steal_count() const noexcept { return 0; }

  /// Times any thread (worker or external waiter) went to sleep on the
  /// epoch cv, and times a sleeper woke from it. The single cv wakes
  /// EVERY sleeper on every submit/completion, so wakeups per useful
  /// task is the thundering-herd factor this surface exposes.
  /// Cumulative, scheduling-dependent.
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

  void worker_loop();
  /// Pops the oldest task matching `tag` (any when null). On failure
  /// `seen` gets the epoch read under the scan's lock.
  bool try_pop(Task& task, const void* tag, std::uint64_t& seen);
  /// Runs a popped task and publishes its completion (epoch bump) so
  /// waiters re-check their predicates.
  void run_task(Task& task);
  /// Bumps the wake epoch and wakes sleepers; mutex_ must be held.
  void bump_epoch_locked();
  /// Sleeps until the epoch moves past `seen`; a worker returns false
  /// instead once the pool is stopping.
  bool park(std::uint64_t seen, bool worker);

  std::vector<std::thread> workers_;
  /// Guards queue_, epoch_, sleepers_ and stopping_. The cv is
  /// condition_variable_any so it waits on the rank-checked mutex.
  RankedMutex mutex_{LockRank::kPoolQueue};
  std::condition_variable_any cv_;
  std::deque<Task> queue_;
  std::uint64_t epoch_ = 0;
  std::size_t sleepers_ = 0;
  bool stopping_ = false;
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
