// ISSUE 8: the worklist refinement engine must be byte-identical to the
// naive oracle on class_of/class_count (the canonical contract) on
// every family, and deterministic across thread counts and cache modes
// when refined on the pool through the sweep layer. `rounds` is an
// engine-specific diagnostic and is deliberately NOT compared between
// engines.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cache/artifact_cache.hpp"
#include "graph/families/families.hpp"
#include "obs/metrics.hpp"
#include "store/codec.hpp"
#include "support/thread_pool.hpp"
#include "sweep/sweep.hpp"
#include "views/refinement.hpp"
#include "views/refinement_worklist.hpp"

namespace rdv::views {
namespace {

using graph::Graph;
using graph::Node;
namespace families = rdv::graph::families;

std::vector<Graph> family_corpus() {
  std::vector<Graph> graphs;
  graphs.push_back(families::two_node_graph());
  graphs.push_back(families::oriented_ring(3));
  graphs.push_back(families::oriented_ring(7));
  graphs.push_back(families::oriented_ring(12));
  graphs.push_back(families::scrambled_ring(8, 3));
  graphs.push_back(families::scrambled_ring(17, 11));
  graphs.push_back(families::oriented_torus(4, 5));
  graphs.push_back(families::oriented_torus(6, 6));
  graphs.push_back(families::hypercube(3));
  graphs.push_back(families::hypercube(4));
  graphs.push_back(families::complete(4));
  graphs.push_back(families::complete(7));
  graphs.push_back(families::path_graph(3));
  graphs.push_back(families::path_graph(4));
  graphs.push_back(families::path_graph(9));
  graphs.push_back(families::balanced_tree(2, 3));
  graphs.push_back(families::balanced_tree(3, 2));
  graphs.push_back(families::symmetric_double_tree(2, 2));
  graphs.push_back(families::symmetric_double_tree(1, 2));
  graphs.push_back(families::grid(3, 4));
  graphs.push_back(families::grid(5, 5));
  graphs.push_back(families::star(7));
  graphs.push_back(families::complete_bipartite(3, 4));
  graphs.push_back(families::complete_bipartite(4, 4));
  graphs.push_back(families::ring_with_chord(10));
  graphs.push_back(families::random_connected(7, 3, 9));
  graphs.push_back(families::random_connected(12, 10, 25));
  graphs.push_back(families::random_connected(20, 24, 27));
  graphs.push_back(families::random_connected(40, 70, 30));
  return graphs;
}

void expect_canonical_match(const Graph& g, const ViewClasses& got,
                            const ViewClasses& oracle) {
  ASSERT_EQ(got.class_of.size(), g.size()) << g.name();
  EXPECT_EQ(got.class_count, oracle.class_count) << g.name();
  EXPECT_EQ(got.class_of, oracle.class_of) << g.name();
}

TEST(WorklistRefinement, MatchesNaiveOracleOnEveryFamily) {
  for (const Graph& g : family_corpus()) {
    expect_canonical_match(g, compute_view_classes_worklist(g),
                           compute_view_classes_naive(g));
  }
}

TEST(WorklistRefinement, ImplicitTwinFamiliesCollapseToOneClass) {
  // Vertex-transitive families must collapse to a single class — the
  // "implicit twins" the c2 census exploits.
  EXPECT_EQ(compute_view_classes_worklist(families::oriented_ring(16))
                .class_count, 1u);
  EXPECT_EQ(compute_view_classes_worklist(families::oriented_torus(5, 7))
                .class_count, 1u);
  EXPECT_EQ(compute_view_classes_worklist(families::hypercube(5))
                .class_count, 1u);
  // NOT complete(n): its neighbor-sorted port labeling is incoherent
  // (each node's reverse-port vector differs), so even the oracle
  // splits it — same reason star(7) has 7 classes in views_test.
}

TEST(WorklistRefinement, DisconnectedGraphsRefineComponentwise) {
  // GraphBuilder rejects disconnected graphs, but the refinement
  // engines are total over the public Graph constructor. Two disjoint
  // 2-rings: all four nodes look identical to an anonymous agent.
  std::vector<std::vector<graph::HalfEdge>> adj(4);
  adj[0] = {{1, 0}};
  adj[1] = {{0, 0}};
  adj[2] = {{3, 0}};
  adj[3] = {{2, 0}};
  const Graph twin_edges(std::move(adj), "two-edges");
  const ViewClasses c = compute_view_classes_worklist(twin_edges);
  expect_canonical_match(twin_edges, c,
                         compute_view_classes_naive(twin_edges));
  EXPECT_EQ(c.class_count, 1u);

  // A path(3) next to an isolated edge: components of different shape
  // must not merge, and mirrored roles across components must.
  std::vector<std::vector<graph::HalfEdge>> mixed(5);
  mixed[0] = {{1, 0}};
  mixed[1] = {{0, 0}, {2, 0}};
  mixed[2] = {{1, 1}};
  mixed[3] = {{4, 0}};
  mixed[4] = {{3, 0}};
  const Graph path_plus_edge(std::move(mixed), "path3+edge");
  const ViewClasses m = compute_view_classes_worklist(path_plus_edge);
  expect_canonical_match(path_plus_edge, m,
                         compute_view_classes_naive(path_plus_edge));
  EXPECT_TRUE(m.symmetric(3, 4));
  EXPECT_FALSE(m.symmetric(0, 3));
}

TEST(WorklistRefinement, CanonicalIdsAreFirstOccurrenceDense) {
  for (const Graph& g : family_corpus()) {
    const ViewClasses c = compute_view_classes_worklist(g);
    // Scanning class_of in node order, every id is either already seen
    // or exactly the next dense id — the canonical-ordering contract
    // fingerprint keys and codec bytes rely on.
    std::uint32_t next = 0;
    for (Node v = 0; v < g.size(); ++v) {
      ASSERT_LE(c.class_of[v], next) << g.name() << " node " << v;
      if (c.class_of[v] == next) ++next;
    }
    EXPECT_EQ(next, c.class_count) << g.name();
  }
}

TEST(WorklistRefinement, CodecRoundTripsWorklistOutput) {
  // Decode-compatibility of stored artifacts: the worklist output goes
  // through the unchanged kViewClasses codec byte-exactly.
  for (const Graph& g : {families::scrambled_ring(9, 5),
                         families::random_connected(16, 16, 26)}) {
    const ViewClasses c = compute_view_classes_worklist(g);
    const ViewClasses back =
        store::decode_view_classes(store::encode_view_classes(c));
    EXPECT_EQ(back.class_of, c.class_of);
    EXPECT_EQ(back.class_count, c.class_count);
    EXPECT_EQ(back.rounds, c.rounds);
  }
}

// Refining a corpus on the pool is sweep_map over the graphs: each
// worker refines its chunks on its own thread-local refiner arena, so
// the arenas are reused across graphs of very different sizes. Codec
// bytes (ids, count, and the engine's `rounds` diagnostic) must match
// the serial baseline at every pool width, straight from the refiner
// and through the cache with caching on and off.
TEST(WorklistRefinement, DeterministicOnPoolAcrossThreadCountsAndCacheModes) {
  const std::vector<Graph> graphs = family_corpus();
  std::vector<std::string> baseline;
  for (const Graph& g : graphs) {
    baseline.push_back(
        store::encode_view_classes(compute_view_classes_worklist(g)));
  }
  for (const std::size_t threads : {1u, 4u, 16u}) {
    support::ThreadPool pool(threads);
    sweep::SweepConfig config;
    config.pool = &pool;
    const std::vector<std::string> refined = sweep::sweep_map<std::string>(
        graphs.size(),
        [&graphs](std::size_t i) {
          return store::encode_view_classes(
              compute_view_classes_worklist(graphs[i]));
        },
        config);
    EXPECT_EQ(refined, baseline) << threads << " threads";
    for (const bool enabled : {true, false}) {
      cache::CacheConfig cache_config;
      cache_config.enabled = enabled;
      cache::ArtifactCache cache(cache_config);
      const std::vector<std::string> cached = sweep::sweep_map<std::string>(
          graphs.size(),
          [&graphs, &cache](std::size_t i) {
            return store::encode_view_classes(*cache.view_classes(graphs[i]));
          },
          config);
      EXPECT_EQ(cached, baseline)
          << threads << " threads, cache enabled=" << enabled;
    }
  }
}

TEST(WorklistRefinement, SeededRandomFuzzSweepToN512) {
  // Worklist vs oracle over a seeded random-graph sweep: sizes double
  // to n=512, edge surplus sweeps sparse to dense-ish, 3 seeds per
  // size. This is the acceptance fuzz bar for the kernel swap.
  for (const std::uint32_t n : {8u, 16u, 32u, 64u, 128u, 256u, 512u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const std::uint32_t extra = n / 2 + static_cast<std::uint32_t>(seed) * n / 4;
      const Graph g = families::random_connected(n, extra, 1000 + n + seed);
      expect_canonical_match(g, compute_view_classes_worklist(g),
                             compute_view_classes_naive(g));
    }
  }
}

TEST(WorklistRefinement, ProcessCountersAdvance) {
  const obs::Counter& computes =
      obs::counter("views.refine_worklist_computes");
  const obs::Counter& pops = obs::counter("views.refine_worklist_pops");
  const obs::Counter& naive = obs::counter("views.refine_naive");
  const std::uint64_t computes0 = computes.value();
  const std::uint64_t pops0 = pops.value();
  const std::uint64_t naive0 = naive.value();
  (void)compute_view_classes_worklist(families::scrambled_ring(9, 2));
  EXPECT_EQ(computes.value(), computes0 + 1);
  EXPECT_GT(pops.value(), pops0);
  EXPECT_EQ(naive.value(), naive0);  // production path, no oracle
  (void)compute_view_classes_naive(families::scrambled_ring(9, 2));
  EXPECT_EQ(naive.value(), naive0 + 1);
}

TEST(WorklistRefinement, ViewDistanceAgreesWithPartition) {
  // Satellite regression for the view_distance buffer-reuse rewrite:
  // finite distance exactly on asymmetric pairs, kViewsEqual on
  // symmetric ones.
  for (const Graph& g : {families::scrambled_ring(8, 3),
                         families::path_graph(5),
                         families::symmetric_double_tree(2, 1)}) {
    const ViewClasses c = compute_view_classes_worklist(g);
    for (Node u = 0; u < g.size(); ++u) {
      for (Node v = u + 1; v < g.size(); ++v) {
        const std::uint32_t d = view_distance(g, u, v);
        if (c.symmetric(u, v)) {
          EXPECT_EQ(d, kViewsEqual) << g.name() << " " << u << "," << v;
        } else {
          EXPECT_NE(d, kViewsEqual) << g.name() << " " << u << "," << v;
        }
      }
    }
  }
}

}  // namespace
}  // namespace rdv::views
