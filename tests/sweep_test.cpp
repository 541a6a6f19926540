#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "analysis/feasibility.hpp"
#include "analysis/stics.hpp"
#include "core/universal_rv.hpp"
#include "graph/families/families.hpp"
#include "support/thread_pool.hpp"
#include "sweep/sweep.hpp"
#include "views/refinement.hpp"

namespace rdv::sweep {
namespace {

namespace families = rdv::graph::families;
using analysis::Stic;

/// Pure classification kernel (no simulation) — cheap and
/// deterministic, the workhorse for the ordering tests.
SticKernel classify_kernel(const graph::Graph& g,
                           const views::ViewClasses& classes) {
  return [&g, &classes](const Stic& stic) {
    SticRecord record;
    record.stic = stic;
    record.cls = analysis::classify_stic(g, classes, stic);
    record.cells = {std::to_string(stic.u), std::to_string(stic.v),
                    std::to_string(stic.delay),
                    record.cls.feasible ? "yes" : "no"};
    return record;
  };
}

TEST(SweepMap, CoversRangeInOrder) {
  const std::function<int(std::size_t)> square = [](std::size_t i) {
    return static_cast<int>(i * i);
  };
  SweepStats stats;
  SweepConfig config;
  config.chunk_size = 3;  // 7 items -> chunks of 3,3,1 (non-divisible)
  const std::vector<int> out = sweep_map<int>(7, square, config, {}, &stats);
  ASSERT_EQ(out.size(), 7u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
  EXPECT_EQ(stats.items_total, 7u);
  EXPECT_EQ(stats.chunks_total, 3u);
  EXPECT_EQ(stats.items_produced, 7u);
  EXPECT_FALSE(stats.stopped_early);
}

TEST(SweepMap, EmptyRange) {
  const std::function<int(std::size_t)> id = [](std::size_t i) {
    return static_cast<int>(i);
  };
  SweepStats stats;
  const std::vector<int> out = sweep_map<int>(0, id, {}, {}, &stats);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.chunks_total, 0u);
  EXPECT_EQ(stats.chunks_scheduled, 0u);
  EXPECT_FALSE(stats.stopped_early);
}

TEST(SweepMap, SingleItemAndOversizedChunk) {
  const std::function<int(std::size_t)> id = [](std::size_t i) {
    return static_cast<int>(i);
  };
  SweepConfig config;
  config.chunk_size = 1000;  // one chunk swallows everything
  SweepStats stats;
  const std::vector<int> out = sweep_map<int>(1, id, config, {}, &stats);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(stats.chunks_total, 1u);
}

// The default grain comes from the work: about 16 chunks per pool
// thread, never below one item per chunk. T2's ring(4) sweep (48
// STICs) must spread over a 4-thread pool instead of landing in one
// chunk, and the merged output must not depend on the pool width.
TEST(SweepMap, DefaultGrainSpreadsSmallSweepsOverThePool) {
  const std::function<int(std::size_t)> square = [](std::size_t i) {
    return static_cast<int>(i * i);
  };
  const auto chunks_for = [&](std::size_t n, std::size_t threads) {
    support::ThreadPool pool(threads);
    SweepConfig config;
    config.pool = &pool;
    SweepStats stats;
    const std::vector<int> out = sweep_map<int>(n, square, config, {}, &stats);
    EXPECT_EQ(out.size(), n);
    EXPECT_EQ(stats.items_produced, n);
    return stats.chunks_total;
  };
  EXPECT_GE(chunks_for(48, 4), 4u);
  EXPECT_EQ(chunks_for(0, 4), 0u);
  EXPECT_EQ(chunks_for(1, 4), 1u);
  const std::size_t big = chunks_for(10000, 4);
  EXPECT_GE(big, 4u);
  EXPECT_LE(big, 16u * 4u);

  std::vector<int> expected(48);
  for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = square(i);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{16}}) {
    support::ThreadPool pool(threads);
    SweepConfig config;
    config.pool = &pool;
    EXPECT_EQ(sweep_map<int>(expected.size(), square, config), expected)
        << threads << " threads";
  }
}

TEST(SweepMap, ChunkSizeOne) {
  const std::function<int(std::size_t)> id = [](std::size_t i) {
    return static_cast<int>(i);
  };
  SweepConfig config;
  config.chunk_size = 1;
  SweepStats stats;
  const std::vector<int> out = sweep_map<int>(9, id, config, {}, &stats);
  ASSERT_EQ(out.size(), 9u);
  EXPECT_EQ(stats.chunks_total, 9u);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i));
  }
}

TEST(SweepMap, EarlyExitTruncatesInclusively) {
  const std::function<int(std::size_t)> id = [](std::size_t i) {
    return static_cast<int>(i);
  };
  const std::function<bool(const int&)> at_37 = [](const int& v) {
    return v == 37;
  };
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    support::ThreadPool pool(threads);
    SweepConfig config;
    config.chunk_size = 7;
    config.pool = &pool;
    SweepStats stats;
    const std::vector<int> out =
        sweep_map<int>(100, id, config, at_37, &stats);
    ASSERT_EQ(out.size(), 38u) << threads << " threads";
    EXPECT_EQ(out.back(), 37);
    EXPECT_TRUE(stats.stopped_early);
    EXPECT_EQ(stats.stop_index, 37u);
    EXPECT_EQ(stats.items_produced, 38u);
  }
}

TEST(SweepMap, EarlyExitOnVeryFirstItem) {
  const std::function<int(std::size_t)> id = [](std::size_t i) {
    return static_cast<int>(i);
  };
  const std::function<bool(const int&)> always = [](const int&) {
    return true;
  };
  SweepStats stats;
  const std::vector<int> out = sweep_map<int>(50, id, {}, always, &stats);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(stats.stop_index, 0u);
  EXPECT_TRUE(stats.stopped_early);
}

TEST(SweepMap, PredicateNeverFiringProducesEverything) {
  const std::function<int(std::size_t)> id = [](std::size_t i) {
    return static_cast<int>(i);
  };
  const std::function<bool(const int&)> never = [](const int&) {
    return false;
  };
  SweepStats stats;
  const std::vector<int> out = sweep_map<int>(20, id, {}, never, &stats);
  EXPECT_EQ(out.size(), 20u);
  EXPECT_FALSE(stats.stopped_early);
}

/// Counts live instances so tests can observe whether sweep_map holds
/// discarded chunk buffers (every constructed-but-not-yet-destroyed
/// Tracked is a retained result item).
struct Tracked {
  static std::atomic<int> live;
  int value = 0;
  Tracked() { live.fetch_add(1); }
  explicit Tracked(int v) : value(v) { live.fetch_add(1); }
  Tracked(const Tracked& o) : value(o.value) { live.fetch_add(1); }
  Tracked(Tracked&& o) noexcept : value(o.value) { live.fetch_add(1); }
  Tracked& operator=(const Tracked&) = default;
  Tracked& operator=(Tracked&&) = default;
  ~Tracked() { live.fetch_sub(1); }
};
std::atomic<int> Tracked::live{0};

// Regression for the early-exit buffer leak: chunks scheduled past the
// stop trigger used to keep their full output until sweep_map
// returned, and kept computing it. Now in-flight chunks observe the
// stop flag — skipping their remaining kernel calls — and every
// discarded buffer is released. Kernels for items past the stop are
// gated on the predicate having fired, which ALSO pins the pipelining
// contract itself: the merge loop must run while later chunks are
// still executing (the old wave-barrier scheduler, which merged only
// after the whole wave finished, would deadlock here).
TEST(SweepMap, EarlyExitReleasesDiscardedChunkBuffersAndSkipsWork) {
  support::ThreadPool pool(4);
  SweepConfig config;
  config.pool = &pool;
  config.chunk_size = 1;  // every item its own chunk, window = 8 chunks
  std::atomic<bool> fired{false};
  std::atomic<int> kernel_calls{0};
  const std::function<Tracked(std::size_t)> make = [&](std::size_t i) {
    kernel_calls.fetch_add(1);
    // Items past the stop run only once the trigger is merged, so
    // every one of them is provably discarded output.
    if (i > 0) {
      while (!fired.load()) std::this_thread::yield();
    }
    return Tracked(static_cast<int>(i));
  };
  const std::function<bool(const Tracked&)> at_0 = [&](const Tracked& t) {
    if (t.value == 0) fired.store(true);
    return t.value == 0;
  };
  ASSERT_EQ(Tracked::live.load(), 0);
  SweepStats stats;
  const std::vector<Tracked> out =
      sweep_map<Tracked>(99, make, config, at_0, &stats);
  // Truncation semantics unchanged: stop on item 0, inclusive.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, 0);
  EXPECT_TRUE(stats.stopped_early);
  EXPECT_EQ(stats.stop_index, 0u);
  EXPECT_EQ(stats.items_produced, 1u);
  // Chunks that had not started when the stop was merged skipped their
  // kernels entirely: nowhere near all 99 items were computed.
  EXPECT_LE(kernel_calls.load(), 9);
  // Every live instance is in the returned vector — each discarded
  // chunk buffer was released, not retained.
  EXPECT_EQ(Tracked::live.load(), static_cast<int>(out.size()));
}

// The pipelined scheduler (schedule wave k+1 while merging wave k)
// must keep the byte-for-byte ordering contract at any thread count,
// chunk size, and early-exit position — including stops landing mid-
// chunk, at a chunk boundary, and past the end.
TEST(SweepMap, PipelinedSchedulerDeterministicAcrossConfigs) {
  const std::function<int(std::size_t)> id = [](std::size_t i) {
    return static_cast<int>(i);
  };
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{16}}) {
    support::ThreadPool pool(threads);
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                    std::size_t{64}}) {
      for (const int stop_at : {-1, 0, 17, 63, 64, 98}) {
        SweepConfig config;
        config.pool = &pool;
        config.chunk_size = chunk;
        std::function<bool(const int&)> stop_when;
        if (stop_at >= 0) {
          stop_when = [stop_at](const int& v) { return v == stop_at; };
        }
        SweepStats stats;
        const std::vector<int> out =
            sweep_map<int>(99, id, config, stop_when, &stats);
        const std::size_t expected =
            (stop_at >= 0 && stop_at < 99) ? stop_at + 1u : 99u;
        ASSERT_EQ(out.size(), expected)
            << threads << " threads, chunk " << chunk << ", stop at "
            << stop_at;
        for (std::size_t i = 0; i < out.size(); ++i) {
          ASSERT_EQ(out[i], static_cast<int>(i));
        }
        EXPECT_EQ(stats.stopped_early, stop_at >= 0 && stop_at < 99);
        EXPECT_EQ(stats.items_produced, expected);
      }
    }
  }
}

// A kernel that itself sweeps on the same pool: the nested shape that
// used to deadlock (the outer chunk's worker blocked on inner chunks
// only it could run). Work-assisting waits execute them instead.
TEST(SweepMap, NestedSweepInsideKernelCompletesAndStaysDeterministic) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    support::ThreadPool pool(threads);
    SweepConfig config;
    config.pool = &pool;
    config.chunk_size = 1;
    const std::function<int(std::size_t)> outer = [&](std::size_t i) {
      const std::function<int(std::size_t)> inner = [i](std::size_t j) {
        return static_cast<int>(i * 10 + j);
      };
      const std::vector<int> parts = sweep_map<int>(5, inner, config);
      int sum = 0;
      for (int p : parts) sum += p;
      return sum;
    };
    const std::vector<int> out = sweep_map<int>(8, outer, config);
    ASSERT_EQ(out.size(), 8u) << threads << " threads";
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(out[i], static_cast<int>(i * 50 + 10));
    }
  }
}

TEST(SticSweep, TableIdenticalForOneAndManyThreads) {
  const graph::Graph g = families::oriented_ring(5);
  const views::ViewClasses classes = views::compute_view_classes(g);
  const std::vector<Stic> stics = analysis::enumerate_stics(g, 3);
  const SticKernel kernel = classify_kernel(g, classes);
  const std::vector<std::string> headers = {"u", "v", "delay", "feasible"};

  support::ThreadPool one(1);
  SweepConfig config_one;
  config_one.pool = &one;
  config_one.chunk_size = 5;
  const SticSweepResult r1 = run_stic_sweep(stics, kernel, config_one);

  support::ThreadPool many(4);
  SweepConfig config_many;
  config_many.pool = &many;
  config_many.chunk_size = 5;
  const SticSweepResult rn = run_stic_sweep(stics, kernel, config_many);

  ASSERT_EQ(r1.records.size(), stics.size());
  ASSERT_EQ(rn.records.size(), stics.size());
  for (std::size_t i = 0; i < stics.size(); ++i) {
    EXPECT_EQ(r1.records[i].stic, rn.records[i].stic);
    EXPECT_EQ(r1.records[i].cls.feasible, rn.records[i].cls.feasible);
    EXPECT_EQ(r1.records[i].cells, rn.records[i].cells);
  }
  // Byte-identical aggregated tables: the acceptance bar.
  EXPECT_EQ(to_table(headers, r1.records).to_csv(),
            to_table(headers, rn.records).to_csv());
  EXPECT_EQ(to_table(headers, r1.records).to_markdown(),
            to_table(headers, rn.records).to_markdown());
}

TEST(SticSweep, EarlyExitAtFirstInfeasibleIsThreadCountInvariant) {
  const graph::Graph g = families::oriented_ring(4);
  const views::ViewClasses classes = views::compute_view_classes(g);
  const std::vector<Stic> stics = analysis::enumerate_stics(g, 2);
  const SticKernel kernel = classify_kernel(g, classes);

  // Ground truth: index of the first infeasible STIC, found serially.
  std::size_t expected_stop = stics.size();
  for (std::size_t i = 0; i < stics.size(); ++i) {
    if (!analysis::classify_stic(g, classes, stics[i]).feasible) {
      expected_stop = i;
      break;
    }
  }
  ASSERT_LT(expected_stop, stics.size())
      << "oriented_ring(4) must have an infeasible STIC in delay 0..2";

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    support::ThreadPool pool(threads);
    SweepConfig config;
    config.pool = &pool;
    config.chunk_size = 3;
    const SticSweepResult r =
        run_stic_sweep(stics, kernel, config, stop_at_infeasible);
    EXPECT_TRUE(r.stats.stopped_early);
    EXPECT_EQ(r.stats.stop_index, expected_stop);
    ASSERT_EQ(r.records.size(), expected_stop + 1);
    EXPECT_FALSE(r.records.back().cls.feasible);
    for (std::size_t i = 0; i < expected_stop; ++i) {
      EXPECT_TRUE(r.records[i].cls.feasible);
    }
  }
}

TEST(SticSweep, ToTableSkipsRecordsWithoutCells) {
  std::vector<SticRecord> records(3);
  records[0].cells = {"a"};
  records[2].cells = {"c"};
  const support::Table table = to_table({"col"}, records);
  EXPECT_EQ(table.row_count(), 2u);
  EXPECT_NE(table.to_csv().find("a\nc"), std::string::npos);
}

TEST(SticSweep, FeasibilitySweepDeterministicAcrossThreadCounts) {
  const graph::Graph g = families::path_graph(3);
  core::UniversalOptions options;
  options.max_phases = 120;
  const sim::AgentProgram program = core::universal_rv_program(options);
  sim::RunConfig config;
  config.max_rounds = 1u << 23;

  support::ThreadPool one(1);
  SweepConfig sweep_one;
  sweep_one.pool = &one;
  support::ThreadPool many(4);
  SweepConfig sweep_many;
  sweep_many.pool = &many;

  const analysis::SweepSummary r1 =
      feasibility_sweep(g, 1, program, config, sweep_one);
  const analysis::SweepSummary rn =
      feasibility_sweep(g, 1, program, config, sweep_many);
  ASSERT_EQ(r1.checks.size(), rn.checks.size());
  for (std::size_t i = 0; i < r1.checks.size(); ++i) {
    EXPECT_EQ(r1.checks[i].cls.stic, rn.checks[i].cls.stic);
    EXPECT_EQ(r1.checks[i].cls.feasible, rn.checks[i].cls.feasible);
    EXPECT_EQ(r1.checks[i].run.met, rn.checks[i].run.met);
    EXPECT_EQ(r1.checks[i].run.meet_from_later_start,
              rn.checks[i].run.meet_from_later_start);
  }
}

}  // namespace
}  // namespace rdv::sweep
