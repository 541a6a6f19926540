#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <latch>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/feasibility.hpp"
#include "analysis/optimal_search.hpp"
#include "analysis/stics.hpp"
#include "cache/artifact_cache.hpp"
#include "cache/fingerprint.hpp"
#include "cache/memo_store.hpp"
#include "graph/families/families.hpp"
#include "graph/serialize.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "sweep/sweep.hpp"
#include "uxs/corpus.hpp"
#include "views/refinement.hpp"
#include "views/shrink.hpp"

namespace rdv::cache {
namespace {

namespace families = rdv::graph::families;
using analysis::Stic;

TEST(Fingerprint, StableAcrossReconstruction) {
  const graph::Graph a = families::oriented_ring(7);
  const graph::Graph b = families::oriented_ring(7);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  EXPECT_EQ(to_string(fingerprint(a)), to_string(fingerprint(b)));
  EXPECT_EQ(fingerprint(a).n, 7u);
}

TEST(Fingerprint, NameDoesNotAffectKey) {
  // Same structure serialized and re-parsed under a different name:
  // artifacts depend only on structure, so the keys must agree.
  const graph::Graph a = families::path_graph(6);
  std::string text = graph::to_text(a);
  const std::string::size_type name_at = text.find(a.name());
  ASSERT_NE(name_at, std::string::npos);
  text.replace(name_at, a.name().size(), "renamed");
  const graph::Graph b = graph::from_text(text);
  EXPECT_NE(a.name(), b.name());
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(Fingerprint, RelabelledAndDistinctGraphsGetDistinctKeys) {
  // scrambled_ring is the same ring up to port relabelling — the
  // adjacency stream differs, so the key must too (the cache
  // deduplicates exact structural repeats, never isomorphism classes).
  const std::vector<graph::Graph> graphs = {
      families::oriented_ring(8),
      families::scrambled_ring(8, /*seed=*/11),
      families::scrambled_ring(8, /*seed=*/12),
      families::path_graph(8),
      families::complete(8),
      families::oriented_ring(9),
  };
  std::set<std::string> keys;
  for (const graph::Graph& g : graphs) keys.insert(to_string(fingerprint(g)));
  EXPECT_EQ(keys.size(), graphs.size());
}

TEST(ArtifactCache, ComputeOncePointerSharing) {
  ArtifactCache cache;
  const graph::Graph g = families::oriented_torus(3, 3);
  const auto first = cache.view_classes(g);
  const auto second = cache.view_classes(g);
  EXPECT_EQ(first.get(), second.get());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.view_classes.misses, 1u);
  EXPECT_EQ(stats.view_classes.hits, 1u);
  EXPECT_EQ(stats.view_classes.entries, 1u);
  EXPECT_GT(stats.view_classes.bytes, 0u);
  // Values match the uncached computation exactly.
  const views::ViewClasses direct = views::compute_view_classes(g);
  EXPECT_EQ(first->class_of, direct.class_of);
  EXPECT_EQ(first->class_count, direct.class_count);
}

TEST(ArtifactCache, QuotientWarmsViewClassesStore) {
  ArtifactCache cache;
  const graph::Graph g = families::oriented_ring(6);
  const auto q = cache.quotient(g);
  EXPECT_EQ(q->class_count(), 1u);  // oriented ring is fully symmetric
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.quotients.misses, 1u);
  EXPECT_EQ(stats.view_classes.misses, 1u);
  // Subsequent view-classes requests hit the entry the quotient warmed.
  (void)cache.view_classes(g);
  EXPECT_EQ(cache.stats().view_classes.hits, 1u);
}

TEST(ArtifactCache, UxsMatchesUncachedConstruction) {
  ArtifactCache cache;
  const auto y = cache.uxs(6);
  const uxs::Uxs direct = uxs::corpus_verified_uxs(6);
  ASSERT_EQ(y->length(), direct.length());
  for (std::size_t i = 0; i < y->length(); ++i) {
    EXPECT_EQ(y->terms()[i], direct.terms()[i]);
  }
  EXPECT_EQ(cache.uxs(6).get(), y.get());
  EXPECT_EQ(cache.stats().uxs.misses, 1u);
  EXPECT_EQ(cache.stats().uxs.hits, 1u);
}

TEST(ArtifactCache, ConcurrentHammerComputesOncePerGraph) {
  ArtifactCache cache;
  std::vector<graph::Graph> graphs;
  graphs.push_back(families::oriented_ring(8));
  graphs.push_back(families::scrambled_ring(8, /*seed=*/11));
  graphs.push_back(families::path_graph(8));
  graphs.push_back(families::oriented_torus(3, 3));

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRoundsPerThread = 25;
  // Every thread hammers every graph; collect the pointers each thread
  // saw so pointer identity can be checked across threads.
  std::vector<std::vector<const views::ViewClasses*>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRoundsPerThread; ++round) {
        for (const graph::Graph& g : graphs) {
          seen[t].push_back(cache.view_classes(g).get());
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Exactly one artifact per distinct graph, shared by every thread.
  std::set<const views::ViewClasses*> distinct;
  for (const auto& pointers : seen) {
    distinct.insert(pointers.begin(), pointers.end());
  }
  EXPECT_EQ(distinct.size(), graphs.size());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.view_classes.misses, graphs.size());
  EXPECT_EQ(stats.view_classes.hits + stats.view_classes.misses,
            kThreads * kRoundsPerThread * graphs.size());
}

TEST(MemoStore, ThrowingComputeReachesCallerAndWaiterAndCachesNothing) {
  MemoStore<int, int> store;
  const auto size_of = [](int) { return std::uint64_t{4}; };
  std::latch computing(1);
  std::latch release(1);
  std::atomic<int> waiter_computes{0};
  std::atomic<bool> caller_threw{false};
  std::atomic<bool> waiter_threw{false};

  std::thread caller([&] {
    try {
      (void)store.get_or_compute(
          7,
          [&]() -> int {
            computing.count_down();
            release.wait();
            throw std::runtime_error("compute failed");
          },
          size_of);
    } catch (const std::runtime_error&) {
      caller_threw = true;
    }
  });
  computing.wait();
  std::thread waiter([&] {
    try {
      (void)store.get_or_compute(
          7, [&] { return ++waiter_computes; }, size_of);
    } catch (const std::runtime_error&) {
      waiter_threw = true;
    }
  });
  // The waiter counts its hit under the lock before it waits on the
  // in-flight future; only then does the compute fail.
  while (store.stats().hits == 0) std::this_thread::yield();
  EXPECT_EQ(store.stats().entries, 0u);
  release.count_down();
  caller.join();
  waiter.join();

  EXPECT_TRUE(caller_threw);
  EXPECT_TRUE(waiter_threw);
  EXPECT_EQ(waiter_computes, 0);
  StoreStats stats = store.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);

  // Nothing was cached: the next request computes again and succeeds.
  const auto value = store.get_or_compute(7, [] { return 42; }, size_of);
  EXPECT_EQ(*value, 42);
  EXPECT_EQ(store.get_or_compute(7, [] { return 0; }, size_of).get(),
            value.get());
  stats = store.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 4u);
}

TEST(ArtifactCache, AllPairsShrinkComputedOncePerGraphAndMatchesOracle) {
  ArtifactCache cache;
  const graph::Graph g = families::random_connected(9, 10, 51);
  const auto first = cache.all_pairs_shrink(g);
  const auto again = cache.all_pairs_shrink(g);
  EXPECT_EQ(first.get(), again.get());
  ASSERT_EQ(first->n, g.size());
  for (graph::Node u = 0; u < g.size(); ++u) {
    for (graph::Node v = 0; v < g.size(); ++v) {
      EXPECT_EQ(first->at(u, v), views::shrink(g, u, v));
    }
  }
  const graph::Graph h = families::oriented_ring(9);
  EXPECT_NE(cache.all_pairs_shrink(h).get(), first.get());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.all_pairs_shrink.misses, 2u);
  EXPECT_EQ(stats.all_pairs_shrink.hits, 1u);
  EXPECT_GT(stats.all_pairs_shrink.bytes, 0u);

  const auto via_helper = cached_all_pairs_shrink(g, &cache);
  EXPECT_EQ(via_helper.get(), first.get());
}

TEST(ArtifactCache, DiskKeysNeverTruncateOrCollideOnWideKeys) {
  // Regression: disk_key once rendered into a fixed char[64]; a wider
  // key layout (or future format growth) would have silently truncated
  // into colliding prefixes. Keys are std::string-built now — pin full
  // width and pairwise distinctness on adversarially extreme values.
  GraphFingerprint wide;
  wide.hi = ~0ull;
  wide.lo = ~0ull;
  wide.n = ~0u;
  const std::string fp_key = ArtifactCache::disk_key(wide);
  EXPECT_EQ(fp_key,
            "fp-ffffffffffffffff-ffffffffffffffff-n4294967295");

  // Distinct keys that agree on every leading component must stay
  // distinct — the collision a truncating formatter produces.
  GraphFingerprint other_fp = wide;
  other_fp.n = ~0u - 1;
  EXPECT_NE(ArtifactCache::disk_key(other_fp), fp_key);
}

TEST(ArtifactCache, DisabledCacheRecomputesButAgrees) {
  CacheConfig config;
  config.enabled = false;
  ArtifactCache cache(config);
  const graph::Graph g = families::oriented_ring(6);
  const auto a = cache.view_classes(g);
  const auto b = cache.view_classes(g);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->class_of, b->class_of);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.view_classes.misses, 2u);
  EXPECT_EQ(stats.view_classes.hits, 0u);
  EXPECT_EQ(stats.view_classes.entries, 0u);
  EXPECT_EQ(stats.view_classes.bytes, 0u);
}

TEST(CachedEntryPoints, NullCacheUsesGlobal) {
  const graph::Graph g = families::oriented_torus(3, 3);
  const auto via_null = cached_view_classes(g);
  const auto via_global = global_cache().view_classes(g);
  EXPECT_EQ(via_null.get(), via_global.get());
}

/// The acceptance-bar determinism contract: a sweep resolving its
/// artifacts through the cache produces byte-identical output with the
/// cache enabled, disabled, and at any thread count.
TEST(SweepDeterminism, ByteIdenticalWithCacheOnOffAndAcrossThreads) {
  std::vector<graph::Graph> graphs;
  graphs.push_back(families::oriented_ring(6));
  graphs.push_back(families::scrambled_ring(6, /*seed=*/11));
  graphs.push_back(families::path_graph(6));

  const std::vector<std::string> headers = {
      "graph", "u", "v", "delay", "shrink", "feasible", "classes"};
  // One full classification sweep over every graph's STICs, rendered to
  // CSV; `cache` and `pool` vary, bytes must not.
  const auto render = [&](ArtifactCache& cache, support::ThreadPool& pool) {
    support::Table table(headers);
    for (const graph::Graph& g : graphs) {
      const std::vector<Stic> stics = analysis::enumerate_stics(g, 2);
      // Every case resolves its view classes and Shrink table through
      // the cache under test.
      const std::function<analysis::SticCheck(std::size_t)> check =
          [&](std::size_t i) {
            analysis::SticCheck out;
            out.cls = analysis::classify_stic(
                *cached_view_classes(g, &cache),
                *cached_all_pairs_shrink(g, &cache), stics[i]);
            return out;
          };
      sweep::SweepConfig config;
      config.pool = &pool;
      config.chunk_size = 3;
      const std::string classes =
          std::to_string(cached_quotient(g, &cache)->class_count());
      for (const analysis::SticCheck& c :
           sweep::sweep_map<analysis::SticCheck>(stics.size(), check,
                                                 config)) {
        table.add_row({g.name(), std::to_string(c.cls.stic.u),
                       std::to_string(c.cls.stic.v),
                       std::to_string(c.cls.stic.delay),
                       std::to_string(c.cls.shrink),
                       c.cls.feasible ? "yes" : "no", classes});
      }
    }
    return table.to_csv();
  };

  CacheConfig off;
  off.enabled = false;

  std::vector<std::string> outputs;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const CacheConfig& config : {CacheConfig{}, off}) {
      ArtifactCache cache(config);
      support::ThreadPool pool(threads);
      outputs.push_back(render(cache, pool));
    }
  }
  ASSERT_FALSE(outputs.empty());
  for (std::size_t i = 1; i < outputs.size(); ++i) {
    EXPECT_EQ(outputs[0], outputs[i]) << "variant " << i;
  }
  EXPECT_NE(outputs[0].find("yes"), std::string::npos);
}

TEST(OptimalForStic, ConsistentWithCharacterizationThroughCache) {
  const graph::Graph g = families::oriented_ring(4);
  ArtifactCache cache;
  analysis::OptimalSearchConfig config;
  config.horizon = 32;

  // Antipodal pair at delay 0: symmetric with Shrink 2 -> infeasible,
  // and the oblivious search must drain the state space.
  const analysis::SticOptimal infeasible =
      analysis::optimal_for_stic(g, Stic{0, 2, 0}, config, &cache);
  EXPECT_TRUE(infeasible.cls.symmetric);
  EXPECT_FALSE(infeasible.cls.feasible);
  EXPECT_EQ(infeasible.search.outcome,
            analysis::OptimalOutcome::kProvenInfeasible);
  EXPECT_TRUE(infeasible.consistent);

  // Delay >= Shrink flips the verdict; the search finds a meeting.
  const analysis::SticOptimal feasible = analysis::optimal_for_stic(
      g, Stic{0, 2, infeasible.cls.shrink}, config, &cache);
  EXPECT_TRUE(feasible.cls.feasible);
  EXPECT_EQ(feasible.search.outcome, analysis::OptimalOutcome::kMet);
  EXPECT_TRUE(feasible.consistent);

  // Both classifications resolved through one cached partition.
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.view_classes.misses, 1u);
  EXPECT_EQ(stats.view_classes.hits, 1u);
}

}  // namespace
}  // namespace rdv::cache
