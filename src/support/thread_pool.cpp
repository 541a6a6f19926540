#include "support/thread_pool.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/task_events.hpp"
#include "obs/trace.hpp"

namespace rdv::support {

namespace {

/// The pool the calling thread works for; null on external threads. A
/// thread is a worker of `pool` iff tl_pool == &pool.
thread_local ThreadPool* tl_pool = nullptr;

/// Process-wide scheduler series (all pools aggregated — the registry
/// describes the run, per-pool accessors the instance). Handles are
/// resolved once; bumps are lock-free stripe adds.
struct PoolMetrics {
  obs::Counter& submits = obs::counter("pool.submits");
  obs::Counter& parks = obs::counter("pool.parks");
  obs::Counter& wakeups = obs::counter("pool.wakeups");
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
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
    ++epoch_;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::uint64_t ThreadPool::submit(std::function<void()> task,
                                 const void* tag) {
  // Allocate the lifecycle id and record kSubmit BEFORE enqueueing:
  // once the task is visible a worker may pop it immediately, and the
  // submit timestamp must not trail the begin timestamp.
  const std::uint64_t id =
      obs::task_events_enabled() ? obs::next_task_id() : 0;
  if (id != 0) {
    obs::record_task_event(obs::TaskEventKind::kSubmit, id);
  }
  pool_metrics().submits.add();
  std::lock_guard lock(mutex_);
  queue_.push_back(Task{std::move(task), tag, id});
  bump_epoch_locked();
  return id;
}

void ThreadPool::bump_epoch_locked() {
  ++epoch_;
  if (sleepers_ != 0) cv_.notify_all();
}

bool ThreadPool::try_pop(Task& task, const void* tag, std::uint64_t& seen) {
  std::lock_guard lock(mutex_);
  const auto it = std::find_if(queue_.begin(), queue_.end(),
                               [tag](const Task& t) {
                                 return tag == nullptr || t.tag == tag;
                               });
  if (it == queue_.end()) {
    seen = epoch_;
    return false;
  }
  task = std::move(*it);
  queue_.erase(it);
  return true;
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
  std::lock_guard lock(mutex_);
  bump_epoch_locked();
}

bool ThreadPool::park(std::uint64_t seen, bool worker) {
  obs::record_task_event(obs::TaskEventKind::kPark);
  {
    std::unique_lock lock(mutex_);
    if (worker && stopping_) return false;  // the queue is drained
    ++sleepers_;
    parks_.fetch_add(1, std::memory_order_relaxed);
    pool_metrics().parks.add();
    // The destructor bumps the epoch too, so a parked worker wakes.
    cv_.wait(lock, [&] { return epoch_ != seen; });
    --sleepers_;
    wakeups_.fetch_add(1, std::memory_order_relaxed);
    pool_metrics().wakeups.add();
  }
  obs::record_task_event(obs::TaskEventKind::kUnpark);
  return true;
}

void ThreadPool::worker_loop() {
  tl_pool = this;
  for (;;) {
    Task task;
    std::uint64_t seen = 0;
    if (try_pop(task, nullptr, seen)) {
      run_task(task);
    } else if (!park(seen, true)) {
      return;
    }
  }
}

void ThreadPool::assist_until(const std::function<bool()>& done,
                              const void* tag) {
  // Only pool workers assist. A worker that parked would starve the
  // very tasks it waits on (the nested-sweep deadlock); an external
  // thread that assisted could pick up an unrelated task that blocks on
  // an event its submitter signals only after this wait returns (e.g. a
  // test gating a task on a promise). The tag narrows pops likewise.
  const bool worker = tl_pool == this;
  obs::Span span("pool", worker ? "assist" : "assist.external");
  for (;;) {
    if (done()) return;
    Task task;
    std::uint64_t seen = 0;
    if (worker) {
      if (try_pop(task, tag, seen)) {
        run_task(task);
        continue;
      }
    } else {
      std::lock_guard lock(mutex_);
      seen = epoch_;
    }
    // Nothing runnable here: every task we are waiting on is queued
    // for or executing on some other thread. Sleep until anything is
    // submitted or completes (both bump the epoch), then re-check.
    if (done()) return;
    park(seen, false);
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
