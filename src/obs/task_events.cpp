#include "obs/task_events.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>

#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace rdv::obs {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::size_t> g_ring_capacity{81920};
std::atomic<std::uint64_t> g_dropped{0};
std::atomic<std::uint64_t> g_recorded{0};
std::atomic<std::uint64_t> g_next_task{1};
std::atomic<std::uint64_t> g_next_sweep{1};
std::atomic<std::uint32_t> g_next_thread{0};

/// One thread's event ring. The mutex is private to the owning thread
/// in steady state (only drain/clear contend), so record() is an
/// uncontended lock plus a struct store.
struct EventRing {
  support::RankedMutex mutex{support::LockRank::kObsRing};
  std::vector<TaskEvent> slots;
  std::size_t head = 0;
  std::size_t size = 0;
  std::uint32_t tid = 0;
  std::uint32_t seq = 0;

  void record(TaskEvent event) {
    std::lock_guard lock(mutex);
    if (slots.empty()) {
      g_dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    event.tid = tid;
    event.seq = seq++;
    if (size == slots.size()) {
      g_dropped.fetch_add(1, std::memory_order_relaxed);
    } else {
      ++size;
    }
    g_recorded.fetch_add(1, std::memory_order_relaxed);
    slots[head] = event;
    head = (head + 1) % slots.size();
  }

  /// Events oldest-first.
  std::vector<TaskEvent> snapshot() {
    std::lock_guard lock(mutex);
    std::vector<TaskEvent> out;
    out.reserve(size);
    const std::size_t capacity = slots.size();
    if (capacity == 0) return out;
    const std::size_t first = (head + capacity - size) % capacity;
    for (std::size_t i = 0; i < size; ++i) {
      out.push_back(slots[(first + i) % capacity]);
    }
    return out;
  }

  void clear() {
    std::lock_guard lock(mutex);
    head = 0;
    size = 0;
    seq = 0;
  }
};

struct RingDirectory {
  support::RankedMutex mutex{support::LockRank::kObsRing};
  std::vector<std::shared_ptr<EventRing>> rings;
};

RingDirectory& directory() {
  static RingDirectory dir;
  return dir;
}

/// Every ring ever registered (snapshot of the directory).
std::vector<std::shared_ptr<EventRing>> all_rings() {
  RingDirectory& dir = directory();
  std::lock_guard lock(dir.mutex);
  return dir.rings;
}

/// The calling thread's ring, registered (and sized) on first use.
/// shared_ptr keeps the ring alive for drains after the thread exits.
EventRing& thread_event_ring() {
  thread_local const std::shared_ptr<EventRing> ring = [] {
    auto r = std::make_shared<EventRing>();
    r->slots.resize(g_ring_capacity.load(std::memory_order_relaxed));
    r->tid = thread_obs_id();
    RingDirectory& dir = directory();
    std::lock_guard lock(dir.mutex);
    dir.rings.push_back(r);
    return r;
  }();
  return *ring;
}

}  // namespace

std::uint32_t thread_obs_id() noexcept {
  thread_local const std::uint32_t id =
      g_next_thread.fetch_add(1, std::memory_order_relaxed);
  return id;
}

bool task_events_enabled() noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

void set_task_events_enabled(bool enabled) noexcept {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

void set_task_event_ring_capacity(std::size_t events) noexcept {
  g_ring_capacity.store(events, std::memory_order_relaxed);
}

std::uint64_t next_task_id() noexcept {
  return g_next_task.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t next_sweep_id() noexcept {
  return g_next_sweep.fetch_add(1, std::memory_order_relaxed);
}

void record_task_event(TaskEventKind kind, std::uint64_t task,
                       std::uint64_t a, std::uint64_t b) {
  if (!task_events_enabled()) return;
  TaskEvent event;
  event.t_micros = now_micros();
  event.task = task;
  event.a = a;
  event.b = b;
  event.kind = kind;
  thread_event_ring().record(event);
}

void record_event(TaskEvent event) {
  if (!task_events_enabled()) return;
  thread_event_ring().record(event);
}

std::uint64_t task_events_dropped_count() noexcept {
  return g_dropped.load(std::memory_order_relaxed);
}

std::uint64_t task_events_recorded_count() noexcept {
  return g_recorded.load(std::memory_order_relaxed);
}

std::vector<TaskEvent> drain_task_events() {
  std::vector<TaskEvent> events;
  for (const auto& ring : all_rings()) {
    std::vector<TaskEvent> part = ring->snapshot();
    events.insert(events.end(), part.begin(), part.end());
  }
  std::sort(events.begin(), events.end(),
            [](const TaskEvent& x, const TaskEvent& y) {
              if (x.t_micros != y.t_micros) return x.t_micros < y.t_micros;
              if (x.tid != y.tid) return x.tid < y.tid;
              return x.seq < y.seq;
            });
  return events;
}

void clear_task_events() {
  for (const auto& ring : all_rings()) ring->clear();
  g_dropped.store(0, std::memory_order_relaxed);
  g_recorded.store(0, std::memory_order_relaxed);
}

}  // namespace rdv::obs
