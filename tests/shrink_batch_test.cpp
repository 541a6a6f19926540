// Equivalence and determinism suite for the batched all-pairs Shrink
// kernel (views::shrink_all_pairs): the per-pair product BFS
// (shrink_with_witness) is the oracle, the batched level-ordered
// backward closure must agree on EVERY ordered pair of every family,
// through every cache/store/thread configuration the census runs
// under.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cache/artifact_cache.hpp"
#include "graph/families/families.hpp"
#include "graph/families/implicit.hpp"
#include "graph/graph.hpp"
#include "store/codec.hpp"
#include "store/disk_store.hpp"
#include "views/shrink.hpp"

namespace rdv::views {
namespace {

using graph::Graph;
using graph::Node;
namespace families = rdv::graph::families;

/// Two disjoint 2-cycles, built through the public Graph constructor
/// (GraphBuilder would reject the disconnectivity).
Graph two_edges() {
  std::vector<std::vector<graph::HalfEdge>> adj(4);
  adj[0] = {{1, 0}};
  adj[1] = {{0, 0}};
  adj[2] = {{3, 0}};
  adj[3] = {{2, 0}};
  return Graph(std::move(adj), "two-edges");
}

/// Seeded graphs that drive every path of the kernel: random graphs on
/// which the level-0 closure of the diagonal assigns every pair, graphs
/// on which it assigns only the diagonal, and graphs that mix both and
/// pull some closure layers.
std::vector<Graph> seeded_corpus() {
  std::vector<Graph> corpus;
  std::uint64_t seed = 100;
  for (const std::uint32_t n : {3u, 4u, 5u, 7u, 9u, 12u, 16u, 23u, 31u, 45u,
                                64u}) {
    const std::uint32_t max_extra = n * (n - 1) / 2 - (n - 1);
    for (const std::uint32_t extra : {0u, n / 2, 2 * n}) {
      corpus.push_back(
          families::random_connected(n, std::min(extra, max_extra), ++seed));
    }
  }
  // A tree at n = 70: its bitset rows span two 64-bit words, and level
  // 0 leaves pairs open there.
  corpus.push_back(families::random_connected(70, 0, ++seed));
  for (const std::uint32_t n : {5u, 8u, 13u, 32u}) {
    corpus.push_back(families::scrambled_ring(n, ++seed));
  }
  for (const std::uint32_t n : {6u, 12u, 24u}) {
    corpus.push_back(families::ring_with_chord(n));
  }
  corpus.push_back(families::symmetric_double_tree(2, 3));
  for (const std::uint32_t n : {2u, 7u, 20u, 33u}) {
    corpus.push_back(families::path_graph(n));
  }
  corpus.push_back(two_edges());
  return corpus;
}

std::vector<Graph> equivalence_corpus() {
  std::vector<Graph> corpus;
  corpus.push_back(families::two_node_graph());
  corpus.push_back(families::oriented_ring(7));
  corpus.push_back(families::oriented_ring(8));
  corpus.push_back(families::scrambled_ring(9, /*seed=*/5));
  corpus.push_back(families::path_graph(9));
  corpus.push_back(families::complete(6));
  corpus.push_back(families::star(7));
  corpus.push_back(families::grid(3, 4));
  corpus.push_back(families::complete_bipartite(3, 4));
  corpus.push_back(families::oriented_torus(3, 4));
  corpus.push_back(families::hypercube(3));
  corpus.push_back(families::symmetric_double_tree(2, 2));
  corpus.push_back(families::balanced_tree(3, 2));
  corpus.push_back(families::ring_with_chord(10));
  corpus.push_back(families::random_connected(14, 12, 71));
  corpus.push_back(families::random_connected(17, 30, 72));
  return corpus;
}

TEST(ShrinkAllPairs, MatchesPerPairOracleOnEveryFamily) {
  for (const Graph& g : equivalence_corpus()) {
    SCOPED_TRACE(g.name());
    const AllPairsShrink all = shrink_all_pairs(g);
    ASSERT_EQ(all.n, g.size());
    ASSERT_EQ(all.values.size(),
              static_cast<std::size_t>(g.size()) * g.size());
    for (Node u = 0; u < g.size(); ++u) {
      for (Node v = 0; v < g.size(); ++v) {
        EXPECT_EQ(all.at(u, v), shrink(g, u, v))
            << "pair " << u << "," << v;
      }
    }
  }
}

TEST(ShrinkAllPairs, SeededCorpusMatchesOracleOnEveryPath) {
  int level0_closes_all = 0;
  int diagonal_only = 0;
  int mixed = 0;
  std::uint64_t pull_layers = 0;
  for (const Graph& g : seeded_corpus()) {
    SCOPED_TRACE(g.name());
    const std::uint64_t rows_before = shrink_distance_row_count();
    const std::uint64_t pulls_before = shrink_pull_layer_count();
    const AllPairsShrink all = shrink_all_pairs(g);
    const std::uint64_t rows = shrink_distance_row_count() - rows_before;
    pull_layers += shrink_pull_layer_count() - pulls_before;
    std::uint64_t finite_upper = 0;
    bool zero_off_diagonal = false;
    // The oracle runs on the upper triangle; the lower one must mirror
    // it.
    for (Node u = 0; u < g.size(); ++u) {
      for (Node v = u; v < g.size(); ++v) {
        const std::uint32_t oracle = shrink_with_witness(g, u, v).shrink;
        EXPECT_EQ(all.at(u, v), oracle) << "pair " << u << "," << v;
        EXPECT_EQ(all.at(v, u), oracle) << "pair " << v << "," << u;
        if (oracle != graph::kUnreachable) ++finite_upper;
        if (u != v && oracle == 0) zero_off_diagonal = true;
      }
    }
    // pairs_explored counts the assigned unordered pairs, diagonal
    // included: exactly the finite upper-triangle cells.
    EXPECT_EQ(all.pairs_explored, finite_upper);
    if (rows == 0) {
      ++level0_closes_all;
    } else if (!zero_off_diagonal) {
      ++diagonal_only;
    } else {
      ++mixed;
    }
  }
  EXPECT_GT(level0_closes_all, 0);
  EXPECT_GT(diagonal_only, 0);
  EXPECT_GT(mixed, 0);
  EXPECT_GT(pull_layers, 0u);
}

TEST(ShrinkAllPairs, SymmetricWithZeroDiagonal) {
  for (const Graph& g : equivalence_corpus()) {
    SCOPED_TRACE(g.name());
    const AllPairsShrink all = shrink_all_pairs(g);
    for (Node u = 0; u < g.size(); ++u) {
      EXPECT_EQ(all.at(u, u), 0u);
      for (Node v = u + 1; v < g.size(); ++v) {
        EXPECT_EQ(all.at(u, v), all.at(v, u))
            << "pair " << u << "," << v;
      }
    }
  }
}

TEST(ShrinkAllPairs, ExploresAtLeastReachablePairCount) {
  const Graph g = families::oriented_ring(8);
  const AllPairsShrink all = shrink_all_pairs(g);
  // Every ordered pair of a connected graph is reachable in the product
  // graph from itself, so the closure visits at least the canonical
  // (upper-triangle + diagonal) pair count.
  EXPECT_GE(all.pairs_explored, 8ull * 9 / 2);
}

TEST(ShrinkAllPairs, DisconnectedCrossComponentPairsAreUnreachable) {
  const Graph g = two_edges();
  const AllPairsShrink all = shrink_all_pairs(g);
  for (Node u = 0; u < 4; ++u) {
    for (Node v = 0; v < 4; ++v) {
      const bool same_component = (u / 2) == (v / 2);
      if (same_component) {
        EXPECT_NE(all.at(u, v), graph::kUnreachable) << u << "," << v;
        EXPECT_EQ(all.at(u, v), shrink(g, u, v)) << u << "," << v;
      } else {
        EXPECT_EQ(all.at(u, v), graph::kUnreachable) << u << "," << v;
      }
    }
  }
}

TEST(ShrinkAllPairs, ImplicitFamiliesPinShrinkEqualsDistance) {
  // The implicit census (c2) classifies STICs via Shrink == dist on
  // vertex-transitive families. Pin that identity against the batched
  // kernel on the explicit twins.
  {
    const families::OrientedRingTopology ring(9);
    const Graph g = families::oriented_ring(9);
    const AllPairsShrink all = shrink_all_pairs(g);
    for (Node u = 0; u < g.size(); ++u) {
      for (Node v = 0; v < g.size(); ++v) {
        EXPECT_EQ(all.at(u, v), ring.distance(u, v)) << u << "," << v;
      }
    }
  }
  {
    const families::OrientedTorusTopology torus(3, 4);
    const Graph g = families::oriented_torus(3, 4);
    const AllPairsShrink all = shrink_all_pairs(g);
    for (Node u = 0; u < g.size(); ++u) {
      for (Node v = 0; v < g.size(); ++v) {
        EXPECT_EQ(all.at(u, v), torus.distance(u, v)) << u << "," << v;
      }
    }
  }
  {
    const families::HypercubeTopology cube(4);
    const Graph g = families::hypercube(4);
    const AllPairsShrink all = shrink_all_pairs(g);
    for (Node u = 0; u < g.size(); ++u) {
      for (Node v = 0; v < g.size(); ++v) {
        EXPECT_EQ(all.at(u, v), cube.distance(u, v)) << u << "," << v;
      }
    }
  }
}

/// The census determinism contract: resolving the all-pairs table
/// through the cache from many threads, with the cache enabled,
/// disabled, or eviction-thrashed, always yields the same values —
/// byte-identical once serialized into census rows.
TEST(ShrinkAllPairs, IdenticalValuesAcrossThreadsAndCacheConfigs) {
  const Graph g = families::random_connected(20, 30, 73);
  const AllPairsShrink reference = shrink_all_pairs(g);

  cache::CacheConfig off;
  off.enabled = false;
  cache::CacheConfig tiny;
  tiny.shards = 1;
  tiny.capacity_per_shard = 1;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{16}}) {
    for (const cache::CacheConfig& config :
         {cache::CacheConfig{}, off, tiny}) {
      cache::ArtifactCache cache(config);
      std::vector<std::vector<std::uint32_t>> seen(threads);
      std::vector<std::thread> workers;
      workers.reserve(threads);
      for (std::size_t t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          const auto all = cache::cached_all_pairs_shrink(g, &cache);
          seen[t] = all->values;
        });
      }
      for (std::thread& w : workers) w.join();
      for (std::size_t t = 0; t < threads; ++t) {
        EXPECT_EQ(seen[t], reference.values)
            << threads << " threads, thread " << t;
      }
    }
  }
}

TEST(ShrinkAllPairs, WarmStoreRerunRecomputesNothing) {
  const std::string root =
      ::testing::TempDir() + "shrink_batch_warm_store";
  std::filesystem::remove_all(root);
  const Graph g = families::random_connected(12, 14, 74);

  store::DiskConfig disk_config;
  disk_config.root = root;

  // Cold run: one batched compute, persisted write-behind.
  const std::uint64_t before = shrink_all_pairs_compute_count();
  std::vector<std::uint32_t> cold_values;
  {
    cache::CacheConfig config;
    config.disk = std::make_shared<store::DiskStore>(disk_config);
    cache::ArtifactCache cache(config);
    cold_values = cache::cached_all_pairs_shrink(g, &cache)->values;
    EXPECT_EQ(shrink_all_pairs_compute_count(), before + 1);
    EXPECT_EQ(cache.stats().all_pairs_shrink.misses, 1u);
  }

  // Warm run in a fresh process image (new cache, same store): the
  // artifact decodes from disk — ZERO batched recomputes.
  {
    cache::CacheConfig config;
    config.disk = std::make_shared<store::DiskStore>(disk_config);
    cache::ArtifactCache cache(config);
    const auto warm = cache::cached_all_pairs_shrink(g, &cache);
    EXPECT_EQ(warm->values, cold_values);
    EXPECT_EQ(shrink_all_pairs_compute_count(), before + 1);
    EXPECT_EQ(config.disk->stats(store::Kind::kShrinkAllPairs).hits, 1u);
  }
  std::filesystem::remove_all(root);
}

TEST(ShrinkAllPairs, PairBfsCounterOnlyCountsPerPairCalls) {
  const Graph g = families::oriented_ring(6);
  const std::uint64_t pair_before = shrink_pair_bfs_count();
  const std::uint64_t batch_before = shrink_all_pairs_compute_count();
  (void)shrink_all_pairs(g);
  EXPECT_EQ(shrink_pair_bfs_count(), pair_before);
  EXPECT_EQ(shrink_all_pairs_compute_count(), batch_before + 1);
  (void)shrink(g, 0, 3);
  EXPECT_EQ(shrink_pair_bfs_count(), pair_before + 1);
}

void fnv1a(std::uint64_t& h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
}

template <typename T>
void put_le(std::string& out, T v) {
  for (std::size_t i = 0; i < sizeof v; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

/// The table in store format version 1: u32 n, u64 cell count, n*n
/// little-endian u32 cells, u64 pairs_explored.
std::string version1_layout(const AllPairsShrink& a) {
  std::string out;
  put_le<std::uint32_t>(out, a.n);
  put_le<std::uint64_t>(out, a.values.size());
  for (const std::uint32_t v : a.values) put_le(out, v);
  put_le<std::uint64_t>(out, a.pairs_explored);
  return out;
}

/// Kernel output must stay identical across kernel rewrites: one FNV-1a
/// digest over the tables of a random graph, the three symmetric
/// families the census classifies and a path, in the version 1 layout
/// kept here so the pin outlives store format changes. That constant
/// was computed with the kernel that bucketed every pair by distance
/// before any closure ran. A second digest pins the same tables through
/// the store codec (format version 2, narrowed cells), and every table
/// must decode back exactly.
TEST(ShrinkAllPairs, EncodedTablesMatchGoldenDigest) {
  std::uint64_t kernel = 0xcbf29ce484222325ull;
  std::uint64_t encoded = 0xcbf29ce484222325ull;
  for (const Graph& g :
       {families::random_connected(512, 900, 34),
        families::oriented_torus(16, 16), families::hypercube(8),
        families::symmetric_double_tree(2, 7), families::path_graph(300)}) {
    const AllPairsShrink table = shrink_all_pairs(g);
    fnv1a(kernel, version1_layout(table));
    const std::string bytes = store::encode_all_pairs_shrink(table);
    fnv1a(encoded, bytes);
    EXPECT_EQ(store::decode_all_pairs_shrink(bytes).values, table.values)
        << g.name();
  }
  EXPECT_EQ(kernel, 0xfeca469030a45efaull) << std::hex << kernel;
  EXPECT_EQ(encoded, 0x9d4ad172cd6a9fb6ull) << std::hex << encoded;
}

}  // namespace
}  // namespace rdv::views
