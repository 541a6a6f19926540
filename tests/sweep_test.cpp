#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "analysis/feasibility.hpp"
#include "analysis/stics.hpp"
#include "cache/artifact_cache.hpp"
#include "core/universal_rv.hpp"
#include "graph/families/families.hpp"
#include "obs/metrics.hpp"
#include "support/splitmix.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "sweep/sweep.hpp"
#include "uxs/verifier.hpp"
#include "views/refinement.hpp"
#include "views/shrink.hpp"

namespace rdv::sweep {
namespace {

namespace families = rdv::graph::families;
using analysis::Stic;

/// Chunks the sweep layer ran since `before` (the process-wide
/// sweep.chunks counter; tests in one binary run one at a time).
std::uint64_t chunks_since(std::uint64_t before) {
  return obs::counter("sweep.chunks").value() - before;
}
std::uint64_t chunks_now() { return obs::counter("sweep.chunks").value(); }

TEST(SweepMap, CoversRangeInOrder) {
  const std::function<int(std::size_t)> square = [](std::size_t i) {
    return static_cast<int>(i * i);
  };
  const std::uint64_t items_before = obs::counter("sweep.items").value();
  const std::uint64_t before = chunks_now();
  SweepConfig config;
  config.chunk_size = 3;  // 7 items -> chunks of 3,3,1 (non-divisible)
  const std::vector<int> out = sweep_map<int>(7, square, config);
  ASSERT_EQ(out.size(), 7u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
  EXPECT_EQ(chunks_since(before), 3u);
  EXPECT_EQ(obs::counter("sweep.items").value() - items_before, 7u);
}

TEST(SweepMap, EmptyRange) {
  const std::function<int(std::size_t)> id = [](std::size_t i) {
    return static_cast<int>(i);
  };
  const std::uint64_t before = chunks_now();
  const std::vector<int> out = sweep_map<int>(0, id);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(chunks_since(before), 0u);
}

TEST(SweepMap, SingleItemAndOversizedChunk) {
  const std::function<int(std::size_t)> id = [](std::size_t i) {
    return static_cast<int>(i);
  };
  SweepConfig config;
  config.chunk_size = 1000;  // one chunk swallows everything
  const std::uint64_t before = chunks_now();
  const std::vector<int> out = sweep_map<int>(1, id, config);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(chunks_since(before), 1u);
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
    const std::uint64_t before = chunks_now();
    const std::vector<int> out = sweep_map<int>(n, square, config);
    EXPECT_EQ(out.size(), n);
    return chunks_since(before);
  };
  EXPECT_GE(chunks_for(48, 4), 4u);
  EXPECT_EQ(chunks_for(0, 4), 0u);
  EXPECT_EQ(chunks_for(1, 4), 1u);
  const std::uint64_t big = chunks_for(10000, 4);
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
  const std::uint64_t before = chunks_now();
  const std::vector<int> out = sweep_map<int>(9, id, config);
  ASSERT_EQ(out.size(), 9u);
  EXPECT_EQ(chunks_since(before), 9u);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i));
  }
}

/// An item that notes when it is moved on the thread that called
/// sweep_map. That thread never runs pool tasks, so such a move is the
/// merge loop taking the item into the result.
struct Merged {
  static std::atomic<bool> front_merged;
  static std::thread::id caller;
  int value = 0;
  explicit Merged(int v) : value(v) {}
  Merged(Merged&& o) noexcept : value(o.value) {
    if (value == 0 && std::this_thread::get_id() == caller) {
      front_merged.store(true);
    }
  }
};
std::atomic<bool> Merged::front_merged{false};
std::thread::id Merged::caller;

// The merge is pipelined: the caller merges the front chunk while later
// chunks are still executing. Kernels past item 0 block until item 0
// has been merged, so a merge that waited for every chunk would hold
// them to the deadline.
TEST(SweepMap, MergesFrontChunkWhileLaterChunksRun) {
  support::ThreadPool pool(2);
  SweepConfig config;
  config.pool = &pool;
  config.chunk_size = 1;
  Merged::caller = std::this_thread::get_id();
  Merged::front_merged.store(false);
  std::atomic<int> timeouts{0};
  const std::function<Merged(std::size_t)> make = [&](std::size_t i) {
    if (i > 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (!Merged::front_merged.load()) {
        if (std::chrono::steady_clock::now() > deadline) {
          timeouts.fetch_add(1);
          break;
        }
        std::this_thread::yield();
      }
    }
    return Merged(static_cast<int>(i));
  };
  const std::vector<Merged> out = sweep_map<Merged>(6, make, config);
  ASSERT_EQ(out.size(), 6u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].value, static_cast<int>(i));
  }
  EXPECT_EQ(timeouts.load(), 0);
}

// The pipelined scheduler (merge chunk k while later chunks run) must
// keep the byte-for-byte ordering contract at any thread count and
// chunk size, including a chunk larger than the whole range.
TEST(SweepMap, PipelinedSchedulerDeterministicAcrossConfigs) {
  const std::function<int(std::size_t)> id = [](std::size_t i) {
    return static_cast<int>(i);
  };
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{16}}) {
    support::ThreadPool pool(threads);
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                    std::size_t{64}, std::size_t{128}}) {
      SweepConfig config;
      config.pool = &pool;
      config.chunk_size = chunk;
      const std::vector<int> out = sweep_map<int>(99, id, config);
      ASSERT_EQ(out.size(), 99u) << threads << " threads, chunk " << chunk;
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i], static_cast<int>(i));
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
  const views::AllPairsShrink shrink = views::shrink_all_pairs(g);
  const std::vector<Stic> stics = analysis::enumerate_stics(g, 3);
  const std::function<analysis::ClassifiedStic(std::size_t)> classify =
      [&](std::size_t i) {
        return analysis::classify_stic(classes, shrink, stics[i]);
      };
  const auto render = [&](support::ThreadPool& pool) {
    SweepConfig config;
    config.pool = &pool;
    config.chunk_size = 5;
    const std::vector<analysis::ClassifiedStic> out =
        sweep_map<analysis::ClassifiedStic>(stics.size(), classify, config);
    EXPECT_EQ(out.size(), stics.size());
    support::Table table({"u", "v", "delay", "shrink", "feasible"});
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].stic, stics[i]);
      table.add_row({std::to_string(out[i].stic.u),
                     std::to_string(out[i].stic.v),
                     std::to_string(out[i].stic.delay),
                     std::to_string(out[i].shrink),
                     out[i].feasible ? "yes" : "no"});
    }
    return table.to_csv() + table.to_markdown();
  };
  support::ThreadPool one(1);
  support::ThreadPool many(4);
  const std::string r1 = render(one);
  // Byte-identical aggregated tables: the acceptance bar.
  EXPECT_EQ(r1, render(many));
  EXPECT_NE(r1.find("yes"), std::string::npos);
  EXPECT_NE(r1.find("no"), std::string::npos);
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

// feasibility_sweep reads Shrink through the sweep's own cache: one
// table per graph, and nothing from the global cache.
TEST(SticSweep, FeasibilitySweepResolvesShrinkThroughItsCache) {
  const graph::Graph g = families::random_connected(5, 2, /*seed=*/4242);
  core::UniversalOptions options;
  options.max_phases = 8;
  const sim::AgentProgram program = core::universal_rv_program(options);
  sim::RunConfig config;
  config.max_rounds = 1u << 12;

  cache::ArtifactCache cache;
  SweepConfig sweep_config;
  sweep_config.cache = &cache;
  const cache::StoreStats global_before =
      cache::global_cache().stats().all_pairs_shrink;
  const analysis::SweepSummary summary =
      feasibility_sweep(g, 1, program, config, sweep_config);
  EXPECT_EQ(summary.checks.size(), 5u * 4u * 2u);

  EXPECT_EQ(cache.stats().all_pairs_shrink.misses, 1u);
  const cache::StoreStats global_after =
      cache::global_cache().stats().all_pairs_shrink;
  EXPECT_EQ(global_after.hits, global_before.hits);
  EXPECT_EQ(global_after.misses, global_before.misses);
}

/// Every field of every SticCheck of feasibility_sweep over T2's graphs
/// at T2's delays, phase caps and round caps, plus three seeded
/// port-scrambled n = 4 graphs the corpus UXS explores (phase cap: the
/// latest guaranteed phase over their feasible STICs), folded into one
/// order-dependent digest. The constant was computed with the engine
/// that simulated both agents of every STIC.
class CheckDigest {
 public:
  void add(std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (x >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(const analysis::SticCheck& c) {
    add(c.cls.stic.u);
    add(c.cls.stic.v);
    add(c.cls.stic.delay);
    add(c.cls.symmetric ? 1 : 0);
    add(c.cls.shrink);
    add(c.cls.feasible ? 1 : 0);
    add(c.consistent ? 1 : 0);
    add(c.run.met ? 1 : 0);
    add(c.run.meet_from_later_start);
    add(c.run.moves[0]);
    add(c.run.moves[1]);
    add(c.run.rounds_simulated);
    add(c.run.edge_crossings);
    add(c.run.final_pos[0]);
    add(c.run.final_pos[1]);
    add(c.run.programs_finished ? 1 : 0);
    add(c.run.error.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct GoldenCase {
  graph::Graph g;
  std::uint64_t max_delay;
  std::uint64_t max_phases;
  std::uint64_t max_rounds;
};

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  cases.push_back({families::two_node_graph(), 2, 60, 1u << 22});
  cases.push_back({families::oriented_ring(3), 2, 120, 1u << 23});
  cases.push_back({families::path_graph(3), 1, 120, 1u << 23});
  cases.push_back({families::oriented_ring(4), 2, 150, 1u << 24});
  cases.push_back({families::symmetric_double_tree(1, 1), 1, 150, 1u << 24});
  constexpr std::uint32_t n = 4;
  constexpr std::uint32_t max_extra = n * (n - 1) / 2 - (n - 1);
  const auto y = cache::cached_uxs(n);
  support::SplitMix64 rng(7);
  for (int kind = 0; kind < 3; ++kind) {
    for (;;) {
      const std::uint64_t s = rng.next();
      const auto extra = static_cast<std::uint32_t>(s % (max_extra + 1));
      graph::Graph g = kind == 0 ? families::scrambled_ring(n, s)
                                 : families::random_connected(n, extra, s);
      if (!uxs::is_uxs_for(g, *y)) continue;
      const auto classes = cache::cached_view_classes(g);
      const auto shrink = cache::cached_all_pairs_shrink(g);
      std::uint64_t phases = 0;
      for (const Stic& stic : analysis::enumerate_stics(g, 1)) {
        const bool sym = classes->symmetric(stic.u, stic.v);
        const std::uint32_t d = shrink->at(stic.u, stic.v);
        if (sym && stic.delay < d) continue;
        phases = std::max(
            phases, sym ? core::guaranteed_phase_symmetric(n, d, stic.delay)
                        : core::guaranteed_phase_nonsymmetric(n, stic.delay));
      }
      cases.push_back({std::move(g), 1, phases, 1u << 24});
      break;
    }
  }
  return cases;
}

TEST(SticSweep, FeasibilitySweepGoldenOnT2AndSeededGraphs) {
  CheckDigest digest;
  std::uint64_t stics = 0;
  std::uint64_t met = 0;
  for (const GoldenCase& c : golden_cases()) {
    core::UniversalOptions options;
    options.max_phases = c.max_phases;
    sim::RunConfig config;
    config.max_rounds = c.max_rounds;
    const analysis::SweepSummary summary = feasibility_sweep(
        c.g, c.max_delay, core::universal_rv_program(options), config);
    EXPECT_EQ(summary.inconsistent, 0u) << c.g.name();
    digest.add(c.max_phases);
    for (const analysis::SticCheck& check : summary.checks) {
      ASSERT_TRUE(check.run.ok()) << check.run.error;
      digest.add(check);
      ++stics;
      if (check.run.met) ++met;
    }
  }
  EXPECT_EQ(stics, 168u);
  EXPECT_EQ(met, 140u);
  EXPECT_EQ(digest.value(), 0xdf4abe11487830d0ull) << std::hex << digest.value();
}

}  // namespace
}  // namespace rdv::sweep
