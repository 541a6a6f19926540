#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

/// The one observability event ring: per-thread rings of fixed-size
/// events — submit / dequeue / steal / begin / end / park / unpark from
/// the thread pool, sweep / chunk / merge markers from the pipelined
/// sweep runner, and completed spans from obs::Span (obs/trace.hpp).
/// Pool events carry STABLE TASK IDS, so a post-run analyzer
/// (obs/profile.hpp) can stitch one task's lifecycle across threads:
/// who submitted it, who stole it, when it ran, and which merge
/// consumed its output.
///
/// Design:
///  - OFF by default; when off, every call site costs one relaxed
///    atomic load and records nothing. `rdv_bench --trace-out` or
///    `--profile-out` (or set_task_events_enabled) switches it on.
///  - Each recording thread owns one fixed-capacity ring; a full ring
///    overwrites its oldest event (counted once in the dropped tally)
///    — recording never blocks and never allocates. Events are plain
///    trivially-copyable structs; span strings are interned ids.
///  - Rings register globally on first use and outlive their threads;
///    drain_task_events() snapshots every ring and merges the events
///    into one deterministic order.
///
/// Like metrics, the event log is sidecar-only: nothing here touches
/// stdout or a result byte.
namespace rdv::obs {

/// Stable per-thread observability id (assigned once per thread, in
/// first-use order): the `tid` of every event the thread records, so
/// span slices and flow events stitched from task events land on the
/// same Chrome-trace timeline rows.
[[nodiscard]] std::uint32_t thread_obs_id() noexcept;

enum class TaskEventKind : std::uint8_t {
  /// Pool: task enqueued (tid = submitter). task = id.
  kSubmit = 0,
  /// Pool: task popped from the executor's own deque or the shared
  /// queue (tid = executor). task = id.
  kDequeue,
  /// Pool: task popped from ANOTHER worker's deque (tid = thief).
  /// task = id, a = victim worker index within its pool.
  kSteal,
  /// Pool: task body starts / finishes executing (tid = executor).
  kBegin,
  kEnd,
  /// Pool: the thread went to sleep on the wake cv / woke from it.
  kPark,
  kUnpark,
  /// Sweep: sweep_map entry/exit on the merging thread.
  /// a = sweep id, b = chunk count (begin) / items produced (end).
  kSweepBegin,
  kSweepEnd,
  /// Sweep: labels a just-submitted pool task as chunk `b` of sweep
  /// `a` — the join key between the pool lifecycle and the sweep DAG.
  kChunkTask,
  /// Sweep: merge of chunk `b` of sweep `a` starts / finishes on the
  /// merging thread.
  kMergeBegin,
  kMergeEnd,
  /// A completed obs::Span, recorded when it closes: t_micros = start,
  /// a = duration, b = its integer arg; name / category / arg_key hold
  /// interned string ids (obs/trace.hpp).
  kSpan,
};

struct TaskEvent {
  std::uint64_t t_micros = 0;
  /// Pool task id (next_task_id), 0 when the event has no task.
  std::uint64_t task = 0;
  /// Kind-specific (see TaskEventKind): victim index, sweep id.
  std::uint64_t a = 0;
  /// Kind-specific: chunk index, chunk count, items produced.
  std::uint64_t b = 0;
  /// Recording thread (thread_obs_id).
  std::uint32_t tid = 0;
  /// Per-ring sequence number: breaks same-microsecond ties so the
  /// merged order is deterministic for a fixed set of events.
  std::uint32_t seq = 0;
  TaskEventKind kind = TaskEventKind::kSubmit;
  /// kSpan only: interned string ids (0 = none), in the padding after
  /// `kind`, so a span costs no more ring memory than a pool event.
  std::uint16_t category = 0;
  std::uint16_t name = 0;
  std::uint16_t arg_key = 0;
};
static_assert(sizeof(TaskEvent) <= 48 &&
              std::is_trivially_copyable_v<TaskEvent>);

/// Global on/off switch (reads are one relaxed atomic load).
[[nodiscard]] bool task_events_enabled() noexcept;
void set_task_events_enabled(bool enabled) noexcept;

/// Ring capacity (events per thread) for rings created AFTER the call;
/// existing rings keep theirs. Default 81920 (3.75 MiB per thread).
void set_task_event_ring_capacity(std::size_t events) noexcept;

/// Process-wide task / sweep id allocators (1-based; 0 is "no id").
/// Monotone within a run — with deterministic submit order (a 1-thread
/// pool) the assigned ids are deterministic too.
[[nodiscard]] std::uint64_t next_task_id() noexcept;
[[nodiscard]] std::uint64_t next_sweep_id() noexcept;

/// Records one event, stamped now, on the calling thread's ring
/// (overwrites the oldest when full). No-op when disabled — callers on
/// hot paths should check task_events_enabled() first to skip id
/// allocation.
void record_task_event(TaskEventKind kind, std::uint64_t task = 0,
                       std::uint64_t a = 0, std::uint64_t b = 0);

/// Records a prebuilt event as is (the ring stamps tid and seq). No-op
/// when disabled.
void record_event(TaskEvent event);

/// Cumulative events lost to ring overwrites / recorded successfully
/// (all rings). Bridged into metrics as obs.events_dropped and
/// obs.events_recorded — CI asserts zero drops on smoke runs.
[[nodiscard]] std::uint64_t task_events_dropped_count() noexcept;
[[nodiscard]] std::uint64_t task_events_recorded_count() noexcept;

/// Snapshots every ring, merged by (t_micros, tid, seq) — deterministic
/// for a fixed set of recorded events. Does not stop recording or
/// clear rings.
[[nodiscard]] std::vector<TaskEvent> drain_task_events();

/// Clears every ring and the dropped/recorded tallies (rings stay
/// registered; the id allocators keep counting).
void clear_task_events();

}  // namespace rdv::obs
