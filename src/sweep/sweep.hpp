#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/feasibility.hpp"
#include "analysis/stics.hpp"
#include "cache/artifact_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/task_events.hpp"
#include "sim/engine.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

/// Sharded, pipelined sweep runner — the substrate for the experiment
/// sweeps (STIC enumeration, feasibility cross-checks, rendezvous-time
/// tables).
///
/// The index space is partitioned into contiguous chunks; chunks
/// execute on a support::ThreadPool and results are merged BY CHUNK
/// INDEX, never by completion order, so the output is byte-identical
/// for any thread count. Scheduling and merging are PIPELINED: the
/// merge loop waits (work-assisting, so a nested sweep inside a pool
/// task cannot deadlock) for the front chunk only, merges it while
/// later chunks are still executing, and — when an early-exit
/// predicate bounds the sweep — tops the in-flight window back up one
/// chunk per merged chunk, so wave k+1 runs while wave k's output is
/// consumed. Early-exit predicates are evaluated on the merged stream
/// in index order: the result is truncated right after the first item
/// matching the predicate, no further chunk is scheduled, in-flight
/// chunks observe the stop flag and skip their remaining kernel calls,
/// and every discarded chunk buffer is released before return.
namespace rdv::sweep {

struct SweepConfig {
  /// Items per chunk. 0 (the default) derives the grain from the work:
  /// max(1, ceil(n / (16 * pool threads))), about 16 chunks per worker,
  /// so a sweep of a few dozen expensive items still spreads over the
  /// whole pool. A nonzero value is an explicit override for callers
  /// that measure the scheduler at a fixed grain. The grain only moves
  /// chunk boundaries; output is merged by index either way.
  std::size_t chunk_size = 0;
  /// Pool to run on; nullptr uses support::default_pool(). The runner
  /// tracks its own chunks with a support::TaskGroup, so independent
  /// sweeps may share one pool without waiting on each other; kernels
  /// may themselves run nested sweeps (or otherwise block on the same
  /// pool via TaskGroup::wait) — waits are work-assisting, so the
  /// blocked worker executes the tasks it is waiting for.
  support::ThreadPool* pool = nullptr;
  /// Per-graph artifact cache used by the kernels the sweep layer
  /// builds itself (e.g. feasibility_sweep's view classes); nullptr
  /// uses cache::global_cache(). Artifacts are deterministic functions
  /// of the graph, so the cache choice never changes sweep output.
  cache::ArtifactCache* cache = nullptr;
};

struct SweepStats {
  std::size_t items_total = 0;
  /// Chunks the index space was split into. With the derived grain this
  /// depends on the pool width, like chunks_scheduled; the merged
  /// output never does.
  std::size_t chunks_total = 0;
  /// Chunks actually handed to the pool. Scheduling-dependent (wave
  /// width scales with the pool).
  std::size_t chunks_scheduled = 0;
  std::size_t items_produced = 0;
  bool stopped_early = false;
  /// Index (into the merged output) of the item that triggered the
  /// early exit; valid when stopped_early.
  std::size_t stop_index = 0;
};

namespace detail {
/// Chunks per pool thread for the derived grain: enough that one slow
/// chunk cannot leave the other workers parked, few enough that chunk
/// dispatch stays a small share of an item's cost.
inline constexpr std::size_t kChunksPerThread = 16;

inline std::size_t grain(std::size_t n, const SweepConfig& config,
                         const support::ThreadPool& pool) {
  if (config.chunk_size != 0) return config.chunk_size;
  const std::size_t target = kChunksPerThread * pool.thread_count();
  return std::max<std::size_t>(1, (n + target - 1) / target);
}
inline support::ThreadPool& effective_pool(const SweepConfig& config) {
  return config.pool != nullptr ? *config.pool : support::default_pool();
}
inline cache::ArtifactCache& effective_cache(const SweepConfig& config) {
  return config.cache != nullptr ? *config.cache : cache::global_cache();
}

/// Process-wide sweep-substrate series (ISSUE 7): chunk/item/early-exit
/// counters plus the pipeline-occupancy gauge (scheduled-but-unmerged
/// chunks; concurrent sweeps last-write-win, which is fine for a
/// point-in-time gauge). Handles resolved once per process.
struct SweepMetrics {
  obs::Counter& chunks = obs::counter("sweep.chunks");
  obs::Counter& items = obs::counter("sweep.items");
  obs::Counter& early_exits = obs::counter("sweep.early_exits");
  obs::Counter& chunk_skips = obs::counter("sweep.chunk_skips");
  obs::Counter& window_refills = obs::counter("sweep.window_refills");
  obs::Gauge& occupancy = obs::gauge("sweep.pipeline_occupancy");
};
inline SweepMetrics& sweep_metrics() {
  static SweepMetrics metrics;
  return metrics;
}
}  // namespace detail

/// Maps fn over [0, n) with deterministic ordering. `stop_when`, if
/// set, is tested against each produced item in index order; the first
/// hit truncates the output (inclusive) and stops scheduling.
template <typename R>
std::vector<R> sweep_map(std::size_t n,
                         const std::function<R(std::size_t)>& fn,
                         const SweepConfig& config = {},
                         const std::function<bool(const R&)>& stop_when = {},
                         SweepStats* stats = nullptr) {
  support::ThreadPool& pool = detail::effective_pool(config);
  const std::size_t chunk_size = detail::grain(n, config, pool);
  const std::size_t chunks =
      n == 0 ? 0 : (n + chunk_size - 1) / chunk_size;
  // Profiler markers (ISSUE 9): the sweep id joins this sweep's chunk
  // tasks and merges into one DAG the analyzer can walk. All profiling
  // is sidecar-only — ids are allocated only when enabled, so the off
  // path costs one relaxed load.
  const bool profiled = obs::task_events_enabled();
  const std::uint64_t sweep_id = profiled ? obs::next_sweep_id() : 0;
  if (profiled) {
    obs::record_task_event(obs::TaskEventKind::kSweepBegin, 0, sweep_id,
                           chunks);
  }

  SweepStats local;
  local.items_total = n;
  local.chunks_total = chunks;

  // Without an early-exit predicate the whole index space is scheduled
  // upfront; with one, a sliding window a few chunks per worker wide is
  // kept in flight so a hit near the front does not pay for the whole
  // space. Either way the merge loop runs concurrently with execution.
  const std::size_t window =
      stop_when ? std::max<std::size_t>(1, pool.thread_count() * 2) : chunks;

  std::vector<std::vector<R>> chunk_out(chunks);
  // Completion slots: a chunk task fills chunk_out[c], then publishes
  // it with a release store the merge loop acquires — the only
  // synchronization the pipeline needs besides the pool's own.
  std::vector<std::atomic<bool>> chunk_done(chunks);
  // Set when the early-exit predicate fires. In-flight chunks poll it
  // per item and bail out: everything they would produce is past the
  // stop index and discarded anyway, so skipping keeps the output
  // byte-identical while releasing their buffers early.
  std::atomic<bool> stop_flag{false};
  std::vector<R> merged;
  merged.reserve(n);
  // Per-sweep completion tracking: the group counts only this sweep's
  // chunks, so concurrent sweeps sharing the pool never wait on each
  // other (ThreadPool::wait_idle would wait for the whole pool).
  support::TaskGroup group(pool);
  const auto schedule = [&](std::size_t c) {
    const std::size_t lo = c * chunk_size;
    const std::size_t hi = std::min(n, lo + chunk_size);
    std::vector<R>* out = &chunk_out[c];
    std::atomic<bool>* done = &chunk_done[c];
    const std::uint64_t task_id =
        group.submit([lo, hi, out, done, &fn, &stop_flag] {
          detail::SweepMetrics& metrics = detail::sweep_metrics();
          metrics.chunks.add();
          out->reserve(hi - lo);
          for (std::size_t i = lo; i < hi; ++i) {
            if (stop_flag.load(std::memory_order_relaxed)) {
              std::vector<R>().swap(*out);
              metrics.chunk_skips.add();
              break;
            }
            out->push_back(fn(i));
          }
          metrics.items.add(out->size());
          done->store(true, std::memory_order_release);
        });
    // Labels the pool task as chunk `c` of this sweep — the join key
    // between the pool lifecycle events and the sweep DAG.
    if (task_id != 0) {
      obs::record_task_event(obs::TaskEventKind::kChunkTask, task_id,
                             sweep_id, c);
    }
    ++local.chunks_scheduled;
  };
  std::size_t next_chunk = 0;
  for (; next_chunk < std::min(chunks, window); ++next_chunk) {
    schedule(next_chunk);
  }
  bool stopped = false;
  // next_chunk grows inside the loop as the window refills, so the
  // bound re-reads it: the loop drains every chunk ever scheduled.
  for (std::size_t front = 0; front < next_chunk; ++front) {
    // Tagged with the group: an assisting worker runs only this
    // sweep's chunks (plus its own deque's descendants), never an
    // unrelated task that could block or nest arbitrarily deep.
    pool.assist_until(
        [&chunk_done, front] {
          return chunk_done[front].load(std::memory_order_acquire);
        },
        group.tag());
    if (!stopped) {
      // Note for the analyzer: the chunk task publishes chunk_done
      // BEFORE the pool records its kEnd, so this kMergeBegin may
      // carry a timestamp slightly before the chunk's kEnd — the
      // critical-path walk clamps such subtractions.
      if (profiled) {
        obs::record_task_event(obs::TaskEventKind::kMergeBegin, 0,
                               sweep_id, front);
      }
      for (R& r : chunk_out[front]) {
        merged.push_back(std::move(r));
        if (stop_when && stop_when(merged.back())) {
          local.stopped_early = true;
          local.stop_index = merged.size() - 1;
          stopped = true;
          stop_flag.store(true, std::memory_order_relaxed);
          detail::sweep_metrics().early_exits.add();
          break;
        }
      }
      if (profiled) {
        obs::record_task_event(obs::TaskEventKind::kMergeEnd, 0,
                               sweep_id, front);
      }
    }
    // Swap-with-empty, not clear(): merged chunks would otherwise keep
    // their capacity and discarded chunks (the early-exit trigger and
    // everything scheduled past it) their full contents until return.
    std::vector<R>().swap(chunk_out[front]);
    if (!stopped && next_chunk < chunks) {
      schedule(next_chunk);
      ++next_chunk;
      detail::sweep_metrics().window_refills.add();
    }
    detail::sweep_metrics().occupancy.set(
        static_cast<std::int64_t>(next_chunk - front - 1));
  }
  group.wait();  // defensive: every scheduled chunk is already done
  local.items_produced = merged.size();
  if (profiled) {
    obs::record_task_event(obs::TaskEventKind::kSweepEnd, 0, sweep_id,
                           merged.size());
  }
  if (stats != nullptr) *stats = local;
  return merged;
}

/// One sweep datapoint: the STIC it came from, its classification, the
/// simulation outcome, and (optionally) pre-rendered table cells.
struct SticRecord {
  analysis::Stic stic;
  analysis::ClassifiedStic cls;
  sim::RunResult run;
  /// When nonempty, to_table() emits these as one row.
  std::vector<std::string> cells;
};

/// Computes one record from one STIC. Must be thread-safe: invoked
/// concurrently from pool workers.
using SticKernel = std::function<SticRecord(const analysis::Stic&)>;

struct SticSweepResult {
  /// Records in STIC order (truncated after an early-exit trigger).
  std::vector<SticRecord> records;
  SweepStats stats;
};

/// Runs the kernel over an explicit STIC list (enumerate_stics output
/// or a hand-built case list) with chunked pool execution.
[[nodiscard]] SticSweepResult run_stic_sweep(
    const std::vector<analysis::Stic>& stics, const SticKernel& kernel,
    const SweepConfig& config = {},
    const std::function<bool(const SticRecord&)>& stop_when = {});

/// Collects the records' `cells` rows (records with empty cells are
/// skipped) into a Table, preserving sweep order.
[[nodiscard]] support::Table to_table(std::vector<std::string> headers,
                                      const std::vector<SticRecord>& records);

/// Verifies every ordered STIC with delays 0..max_delay against
/// Corollary 3.1 (analysis::verify_stic per STIC, on the sweep runner).
[[nodiscard]] analysis::SweepSummary feasibility_sweep(
    const graph::Graph& g, std::uint64_t max_delay,
    const sim::AgentProgram& program, const sim::RunConfig& run_config,
    const SweepConfig& sweep_config = {});

/// Early-exit predicate: first STIC classified infeasible.
[[nodiscard]] bool stop_at_infeasible(const SticRecord& record);

}  // namespace rdv::sweep
