#include "support/thread_pool.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/task_events.hpp"
#include "obs/trace.hpp"

namespace rdv::support {

namespace {

/// Identifies the pool (and worker slot) the calling thread belongs to,
/// so submit() can target the worker's own deque and try_pop() knows
/// where "own" is. Null on external threads and inside assist_until
/// callers that are not workers.
thread_local ThreadPool* tl_pool = nullptr;
thread_local std::size_t tl_index = 0;

/// Process-wide scheduler series (all pools aggregated — the registry
/// describes the run, per-pool accessors the instance). Handles are
/// resolved once; bumps are lock-free stripe adds.
struct PoolMetrics {
  obs::Counter& submits = obs::counter("pool.submits");
  obs::Counter& steals = obs::counter("pool.steals");
  obs::Counter& parks = obs::counter("pool.parks");
  obs::Counter& wakeups = obs::counter("pool.wakeups");
  obs::Gauge& queue_depth = obs::gauge("pool.queue_depth");
};

PoolMetrics& pool_metrics() {
  static PoolMetrics metrics;
  return metrics;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  // Construct the metric statics (and the obs::Registry behind them)
  // before any pool static finishes constructing, so they are destroyed
  // after every pool: a worker still parking at exit must not bump a
  // counter the Registry has already freed.
  (void)pool_metrics();
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  queues_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(sleep_mutex_);
    stopping_ = true;
    ++epoch_;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::self_index() const noexcept {
  return tl_pool == this ? tl_index : kExternal;
}

std::uint64_t ThreadPool::submit(std::function<void()> task,
                                 const void* tag) {
  // Allocate the lifecycle id and record kSubmit BEFORE enqueueing:
  // once the task is visible a worker may pop it immediately, and the
  // submit timestamp must not trail the dequeue timestamp.
  const std::uint64_t id =
      obs::task_events_enabled() ? obs::next_task_id() : 0;
  if (id != 0) {
    obs::record_task_event(obs::TaskEventKind::kSubmit, id);
  }
  const std::size_t depth =
      in_flight_.fetch_add(1, std::memory_order_relaxed) + 1;
  PoolMetrics& metrics = pool_metrics();
  metrics.submits.add();
  metrics.queue_depth.set(static_cast<std::int64_t>(depth));
  const std::size_t self = self_index();
  if (self != kExternal) {
    WorkerQueue& q = *queues_[self];
    std::lock_guard lock(q.mutex);
    q.tasks.push_back(Task{std::move(task), tag, id});
  } else {
    std::lock_guard lock(shared_mutex_);
    shared_.push_back(Task{std::move(task), tag, id});
  }
  bump_epoch();
  return id;
}

void ThreadPool::bump_epoch() {
  std::lock_guard lock(sleep_mutex_);
  ++epoch_;
  if (sleepers_ != 0) cv_.notify_all();
}

std::uint64_t ThreadPool::epoch() const {
  std::lock_guard lock(sleep_mutex_);
  return epoch_;
}

bool ThreadPool::try_pop(std::size_t self, Task& task, const void* tag) {
  // Lifecycle events are recorded AFTER the queue lock is released —
  // the ring mutex is uncontended, but holding two locks for a
  // profiling write would still lengthen the critical section.
  //
  // Own deque, newest first, any tag: entries here were submitted by
  // the task this worker is currently running (its descendants), so a
  // nested sweep's just-submitted chunks are still cache-hot and LIFO
  // keeps the nesting stack shallow.
  if (self != kExternal) {
    bool popped = false;
    {
      WorkerQueue& q = *queues_[self];
      std::lock_guard lock(q.mutex);
      if (!q.tasks.empty()) {
        task = std::move(q.tasks.back());
        q.tasks.pop_back();
        popped = true;
      }
    }
    if (popped) {
      if (task.id != 0) {
        obs::record_task_event(obs::TaskEventKind::kDequeue, task.id);
      }
      return true;
    }
  }
  const auto matches = [tag](const Task& t) {
    return tag == nullptr || t.tag == tag;
  };
  {
    bool popped = false;
    {
      std::lock_guard lock(shared_mutex_);
      for (auto it = shared_.begin(); it != shared_.end(); ++it) {
        if (matches(*it)) {
          task = std::move(*it);
          shared_.erase(it);
          popped = true;
          break;
        }
      }
    }
    if (popped) {
      if (task.id != 0) {
        obs::record_task_event(obs::TaskEventKind::kDequeue, task.id);
      }
      return true;
    }
  }
  // Steal oldest-first from the other workers, round-robin from the
  // slot after our own so one victim is not hammered by everyone.
  const std::size_t n = queues_.size();
  const std::size_t start = self != kExternal ? self + 1 : 0;
  for (std::size_t offset = 0; offset < n; ++offset) {
    const std::size_t victim = (start + offset) % n;
    if (victim == self) continue;
    bool popped = false;
    {
      WorkerQueue& q = *queues_[victim];
      std::lock_guard lock(q.mutex);
      for (auto it = q.tasks.begin(); it != q.tasks.end(); ++it) {
        if (matches(*it)) {
          task = std::move(*it);
          q.tasks.erase(it);
          popped = true;
          break;
        }
      }
    }
    if (popped) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      pool_metrics().steals.add();
      if (task.id != 0) {
        obs::record_task_event(obs::TaskEventKind::kSteal, task.id,
                               victim);
      }
      return true;
    }
  }
  return false;
}

void ThreadPool::run_task(Task& task) {
  // Tasks are arbitrary user code reaching into every layer: starting
  // one while this thread still holds a substrate lock would let the
  // task re-acquire "upward" and deadlock under the right schedule.
  RDV_CHECK_MSG(held_rank_count() == 0,
                "pool task started while the worker holds a checked lock");
  if (task.id != 0) {
    obs::record_task_event(obs::TaskEventKind::kBegin, task.id);
  }
  task.fn();
  if (task.id != 0) {
    obs::record_task_event(obs::TaskEventKind::kEnd, task.id);
  }
  task.fn = nullptr;  // release captures before announcing completion
  const std::size_t depth =
      in_flight_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  pool_metrics().queue_depth.set(static_cast<std::int64_t>(depth));
  bump_epoch();
}

void ThreadPool::worker_loop(std::size_t index) {
  tl_pool = this;
  tl_index = index;
  for (;;) {
    // Epoch read BEFORE the scan: a task enqueued after the scan bumps
    // the epoch past `seen`, so the wait below returns immediately
    // instead of missing it.
    const std::uint64_t seen = epoch();
    Task task;
    if (try_pop(index, task, nullptr)) {
      run_task(task);
      continue;
    }
    obs::record_task_event(obs::TaskEventKind::kPark);
    {
      std::unique_lock lock(sleep_mutex_);
      if (stopping_) return;  // every queue drained
      ++sleepers_;
      parks_.fetch_add(1, std::memory_order_relaxed);
      pool_metrics().parks.add();
      cv_.wait(lock, [&] { return epoch_ != seen || stopping_; });
      --sleepers_;
      wakeups_.fetch_add(1, std::memory_order_relaxed);
      pool_metrics().wakeups.add();
    }
    obs::record_task_event(obs::TaskEventKind::kUnpark);
  }
}

void ThreadPool::assist_until(const std::function<bool()>& done,
                              const void* tag) {
  // Only pool workers assist. A worker that parked would starve the
  // very tasks it waits on (the nested-sweep deadlock); an external
  // thread parking is safe — the workers make progress without it —
  // and assisting would be WRONG: it could pick up an unrelated task
  // that blocks on an event its submitter signals only after this wait
  // returns (e.g. a test gating a task on a promise). The tag narrows
  // shared-queue/steal pops to the awaited batch for the same reason.
  const std::size_t self = self_index();
  obs::Span span("pool", self != kExternal ? "assist" : "assist.external");
  for (;;) {
    if (done()) return;
    const std::uint64_t seen = epoch();
    Task task;
    if (self != kExternal && try_pop(self, task, tag)) {
      run_task(task);
      continue;
    }
    // Nothing runnable here: every task we are waiting on is queued
    // for or executing on some other thread. Sleep until anything is
    // submitted or completes (both bump the epoch), then re-check.
    if (done()) return;
    obs::record_task_event(obs::TaskEventKind::kPark);
    {
      std::unique_lock lock(sleep_mutex_);
      ++sleepers_;
      parks_.fetch_add(1, std::memory_order_relaxed);
      pool_metrics().parks.add();
      cv_.wait(lock, [&] { return epoch_ != seen; });
      --sleepers_;
      wakeups_.fetch_add(1, std::memory_order_relaxed);
      pool_metrics().wakeups.add();
    }
    obs::record_task_event(obs::TaskEventKind::kUnpark);
  }
}

std::uint64_t TaskGroup::submit(std::function<void()> task) {
  pending_.fetch_add(1, std::memory_order_acq_rel);
  return pool_.submit(
      [this, task = std::move(task)] {
        task();
        // The pool bumps its wake epoch right after this wrapper
        // returns, so a waiter parked in assist_until re-reads
        // pending() then.
        pending_.fetch_sub(1, std::memory_order_acq_rel);
      },
      tag());
}

void TaskGroup::wait() {
  pool_.assist_until([this] { return pending() == 0; }, tag());
}

ThreadPool& default_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace rdv::support
