#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/task_events.hpp"

/// Post-run scheduler profile analyzer (ISSUE 9 tentpole): turns the
/// lifecycle events of the one event ring (obs/task_events.hpp; span
/// events are skipped) into a causal model of a run — per-task
/// lifecycles stitched across threads, per-sweep task DAGs, critical
/// paths with per-stage attribution, thread busy/park timelines,
/// queue/steal latency histograms, and the thundering-herd factor (cv
/// wakeups per useful task) that motivates the per-worker parking
/// rewrite on the roadmap.
///
/// The profile round-trips through a JSON sidecar (`rdv_bench
/// --profile-out`), so the `rdv_profile` CLI can re-analyze, compare,
/// and rank long after the run. It also renders the sweep, task, merge
/// and park slices of the Chrome trace (`--trace-out`). Like every obs
/// surface it is sidecar-only: building or rendering a profile never
/// touches stdout or a result byte.
namespace rdv::obs {

/// One pool task's reconstructed lifecycle. Timestamps are micros on
/// the shared obs steady clock; 0 means the event was never seen
/// (incomplete lifecycle, e.g. drained mid-run).
struct TaskProfile {
  std::uint64_t id = 0;
  /// Sweep DAG membership (kChunkTask label); 0 = not a sweep chunk.
  std::uint64_t sweep = 0;
  std::uint64_t chunk = 0;
  bool is_chunk = false;
  /// True when the task was popped from another worker's deque.
  bool stolen = false;
  /// Victim worker index (valid when stolen).
  std::uint64_t steal_victim = 0;
  std::uint32_t submit_tid = 0;
  std::uint32_t exec_tid = 0;
  std::uint64_t submit_t = 0;
  /// Dequeue-or-steal timestamp (whichever popped it).
  std::uint64_t dequeue_t = 0;
  std::uint64_t begin_t = 0;
  std::uint64_t end_t = 0;

  /// Submit-to-begin (clamped; the begin always trails the submit on
  /// one clock, but incomplete lifecycles carry zeros).
  [[nodiscard]] std::uint64_t queue_micros() const noexcept {
    return begin_t > submit_t ? begin_t - submit_t : 0;
  }
  [[nodiscard]] std::uint64_t exec_micros() const noexcept {
    return end_t > begin_t ? end_t - begin_t : 0;
  }
  [[nodiscard]] bool complete() const noexcept {
    return submit_t != 0 && begin_t != 0 && end_t != 0;
  }
};

/// One merged chunk on a sweep's merging thread.
struct MergeProfile {
  std::uint64_t sweep = 0;
  std::uint64_t chunk = 0;
  std::uint32_t tid = 0;
  std::uint64_t begin_t = 0;
  std::uint64_t end_t = 0;

  [[nodiscard]] std::uint64_t micros() const noexcept {
    return end_t > begin_t ? end_t - begin_t : 0;
  }
};

/// One completed park (cv sleep) interval on a thread.
struct ParkInterval {
  std::uint32_t tid = 0;
  std::uint64_t begin_t = 0;
  std::uint64_t end_t = 0;
};

/// One sweep_map invocation.
struct SweepProfile {
  std::uint64_t id = 0;
  std::uint64_t chunks = 0;
  std::uint64_t items = 0;
  /// The scheduling/merging thread.
  std::uint32_t tid = 0;
  std::uint64_t begin_t = 0;
  std::uint64_t end_t = 0;

  [[nodiscard]] std::uint64_t micros() const noexcept {
    return end_t > begin_t ? end_t - begin_t : 0;
  }
};

struct Profile {
  /// Lifecycle events consumed / events lost to ring overwrites (of
  /// any kind, spans included) at drain time. A nonzero dropped count means lifecycles may be incomplete;
  /// rdv_profile report --strict fails on it.
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
  /// Observed time span (min/max event timestamp; 0/0 when empty).
  std::uint64_t t_min = 0;
  std::uint64_t t_max = 0;
  std::vector<TaskProfile> tasks;    ///< sorted by id
  std::vector<MergeProfile> merges;  ///< sorted by (sweep, chunk)
  std::vector<ParkInterval> parks;   ///< sorted by (begin_t, tid)
  std::vector<SweepProfile> sweeps;  ///< sorted by id
};

/// Reconstructs the profile from a drained event stream
/// (drain_task_events output; any (t, tid, seq)-sorted order works).
[[nodiscard]] Profile build_profile(const std::vector<TaskEvent>& events);

/// Busy micros per thread id: its task executions and merges, less the
/// tasks, merges and parks nested in them where a worker waiting inside
/// one task runs others (work-assisting), so busy never exceeds the
/// thread's wall, nor busy plus parked.
[[nodiscard]] std::map<std::uint32_t, std::uint64_t> thread_busy_micros(
    const Profile& profile);

/// Cumulative cv wakeups divided by tasks actually executed — the
/// thundering-herd factor of the single-cv pool (1.0 would be the
/// ideal "one wakeup, one task"). Returns 0 when no task ran.
[[nodiscard]] double herd_factor(const Profile& profile) noexcept;

/// One hop of a sweep's critical path, walked backward from the last
/// merge. kind is "task" (the binding chunk's queue+exec) or "merge".
struct CriticalPathStep {
  std::string kind;
  std::uint64_t chunk = 0;
  std::uint64_t micros = 0;
};

/// Per-stage attribution of one sweep's wall time. The stages
/// partition [sweep begin, sweep end]:
///   schedule — sweep begin to the binding chunk's submit
///   queue    — that chunk's submit to execution begin
///   exec     — its execution
///   stall    — merge-loop waits on a not-yet-ready dependency
///   merge    — merges on the critical path
///   tail     — last merge end to sweep end
/// stage_sum() telescopes back to total_micros exactly, up to clamped
/// inversions (a chunk publishes its done-slot just before its kEnd is
/// recorded, so a merge begin may precede the task end by a hair).
struct CriticalPath {
  std::uint64_t sweep = 0;
  std::uint64_t total_micros = 0;
  std::uint64_t schedule_micros = 0;
  std::uint64_t queue_micros = 0;
  std::uint64_t exec_micros = 0;
  std::uint64_t stall_micros = 0;
  std::uint64_t merge_micros = 0;
  std::uint64_t tail_micros = 0;
  /// Walk order: last merge first.
  std::vector<CriticalPathStep> steps;

  [[nodiscard]] std::uint64_t stage_sum() const noexcept {
    return schedule_micros + queue_micros + exec_micros + stall_micros +
           merge_micros + tail_micros;
  }
};

/// Critical path of one sweep (by sweep id). Returns a zeroed path
/// (total 0) when the sweep is unknown.
[[nodiscard]] CriticalPath critical_path(const Profile& profile,
                                         std::uint64_t sweep);

/// Deterministic JSON sidecar (format 1): name-stable keys, integer
/// micros, arrays in the Profile's sorted orders.
[[nodiscard]] std::string render_profile_json(const Profile& profile);

/// Strict parser for render_profile_json output. Returns false (and
/// reports on stderr) on malformed input or an unknown format.
[[nodiscard]] bool parse_profile_json(const std::string& text,
                                      Profile* out);

/// Human report: sweeps with critical-path attribution, per-thread
/// utilization, queue/steal latency log2 histograms, steal ratio, and
/// the thundering-herd factor.
[[nodiscard]] std::string render_profile_report(const Profile& profile);

/// Top `n` tasks by execution time (descending, id ascending on ties).
[[nodiscard]] std::string render_profile_top(const Profile& profile,
                                             std::size_t n);

/// Side-by-side comparison of two profiles' aggregates (informational;
/// never fails the run).
[[nodiscard]] std::string render_profile_diff(const Profile& a,
                                              const Profile& b);

/// Chrome-trace fragment (comma-joined event objects, no brackets) for
/// render_chrome_trace's extra_events hook: an "X" slice per sweep,
/// task execution, merge and park (category "pool"), plus flow events
/// ("s" at submit, "t" at a steal, "f" at begin; a second flow from
/// chunk end to its merge) stitching each lifecycle across thread rows.
/// These slices are the trace's only record of those moments.
[[nodiscard]] std::string render_task_trace_events(const Profile& profile);

/// Drains the event ring ONCE and writes the requested sidecars from
/// that one snapshot (an empty path skips its sink): the Chrome trace
/// (span slices plus render_task_trace_events of the reconstructed
/// profile) and the profile JSON, so the two files always describe the
/// same events. Returns false when a file cannot be written (reported
/// on stderr, never stdout).
bool write_event_sidecars(const std::string& trace_path,
                          const std::string& profile_path);

}  // namespace rdv::obs
