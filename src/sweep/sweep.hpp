#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "analysis/feasibility.hpp"
#include "cache/artifact_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/task_events.hpp"
#include "support/thread_pool.hpp"

/// Sharded, pipelined sweep runner — the substrate for the experiment
/// sweeps (STIC enumeration, feasibility cross-checks, rendezvous-time
/// tables).
///
/// The index space is partitioned into contiguous chunks, all of which
/// are scheduled upfront on a support::ThreadPool; results are merged
/// BY CHUNK INDEX, never by completion order, so the output is
/// byte-identical for any thread count. The merge is PIPELINED: the
/// merge loop waits (work-assisting, so a nested sweep inside a pool
/// task cannot deadlock) for the front chunk only and merges it while
/// later chunks are still executing. Every sweep runs to the end of
/// its index space.
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
  /// builds itself (feasibility_sweep's view classes and Shrink table);
  /// nullptr uses cache::global_cache(). Artifacts are deterministic
  /// functions of the graph, so the cache choice never changes sweep
  /// output.
  cache::ArtifactCache* cache = nullptr;
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

/// Process-wide sweep-substrate series: chunks run and items they
/// produced. Handles resolved once per process.
struct SweepMetrics {
  obs::Counter& chunks = obs::counter("sweep.chunks");
  obs::Counter& items = obs::counter("sweep.items");
};
inline SweepMetrics& sweep_metrics() {
  static SweepMetrics metrics;
  return metrics;
}
}  // namespace detail

/// Maps fn over [0, n) with deterministic ordering: element i of the
/// result is fn(i) for any pool width and grain.
template <typename R>
std::vector<R> sweep_map(std::size_t n,
                         const std::function<R(std::size_t)>& fn,
                         const SweepConfig& config = {}) {
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

  std::vector<std::vector<R>> chunk_out(chunks);
  // Completion slots: a chunk task fills chunk_out[c], then publishes
  // it with a release store the merge loop acquires — the only
  // synchronization the pipeline needs besides the pool's own.
  std::vector<std::atomic<bool>> chunk_done(chunks);
  std::vector<R> merged;
  merged.reserve(n);
  // Per-sweep completion tracking: the group counts only this sweep's
  // chunks, so concurrent sweeps sharing the pool never wait on each
  // other.
  support::TaskGroup group(pool);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = c * chunk_size;
    const std::size_t hi = std::min(n, lo + chunk_size);
    std::vector<R>* out = &chunk_out[c];
    std::atomic<bool>* done = &chunk_done[c];
    const std::uint64_t task_id = group.submit([lo, hi, out, done, &fn] {
      detail::SweepMetrics& metrics = detail::sweep_metrics();
      metrics.chunks.add();
      out->reserve(hi - lo);
      for (std::size_t i = lo; i < hi; ++i) out->push_back(fn(i));
      metrics.items.add(hi - lo);
      done->store(true, std::memory_order_release);
    });
    // Labels the pool task as chunk `c` of this sweep — the join key
    // between the pool lifecycle events and the sweep DAG.
    if (task_id != 0) {
      obs::record_task_event(obs::TaskEventKind::kChunkTask, task_id,
                             sweep_id, c);
    }
  }
  for (std::size_t front = 0; front < chunks; ++front) {
    // Tagged with the group: an assisting worker runs only this
    // sweep's chunks, never an unrelated task that could block or nest
    // arbitrarily deep.
    pool.assist_until(
        [&chunk_done, front] {
          return chunk_done[front].load(std::memory_order_acquire);
        },
        group.tag());
    // Note for the analyzer: the chunk task publishes chunk_done
    // BEFORE the pool records its kEnd, so this kMergeBegin may carry
    // a timestamp slightly before the chunk's kEnd — the critical-path
    // walk clamps such subtractions.
    if (profiled) {
      obs::record_task_event(obs::TaskEventKind::kMergeBegin, 0, sweep_id,
                             front);
    }
    for (R& r : chunk_out[front]) merged.push_back(std::move(r));
    if (profiled) {
      obs::record_task_event(obs::TaskEventKind::kMergeEnd, 0, sweep_id,
                             front);
    }
    // Swap-with-empty, not clear(): a merged chunk would otherwise keep
    // its capacity until return.
    std::vector<R>().swap(chunk_out[front]);
  }
  group.wait();  // defensive: every scheduled chunk is already done
  if (profiled) {
    obs::record_task_event(obs::TaskEventKind::kSweepEnd, 0, sweep_id,
                           merged.size());
  }
  return merged;
}

/// Verifies every ordered STIC with delays 0..max_delay against
/// Corollary 3.1: sim::run_anonymous_all simulates every STIC from one
/// path per automorphism orbit of start nodes, on the calling thread,
/// and analysis::verify_stic checks each run. The view classes and the
/// all-pairs Shrink table are resolved once, through
/// `sweep_config.cache`. The sweep.unshared_symmetric_pairs counter
/// adds the graph's symmetric node pairs that lie in different orbits
/// (their paths are generated apart).
[[nodiscard]] analysis::SweepSummary feasibility_sweep(
    const graph::Graph& g, std::uint64_t max_delay,
    const sim::AgentProgram& program, const sim::RunConfig& run_config,
    const SweepConfig& sweep_config = {});

}  // namespace rdv::sweep
