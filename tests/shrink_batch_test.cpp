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
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cache/artifact_cache.hpp"
#include "graph/families/families.hpp"
#include "graph/families/implicit.hpp"
#include "graph/graph.hpp"
#include "store/codec.hpp"
#include "store/disk_store.hpp"
#include "views/refinement.hpp"
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

/// The oriented ring at any n >= 1 (families::oriented_ring needs
/// n >= 3): port 0 steps x -> x + 1 and enters through port 1, port 1
/// steps x -> x - 1. At n = 1 both ports are self-loops, at n = 2 they
/// are parallel edges.
Graph oriented_ring_any(std::uint32_t n) {
  std::vector<std::vector<graph::HalfEdge>> adj(n);
  for (Node x = 0; x < n; ++x) {
    adj[x] = {{(x + 1) % n, 1}, {(x + n - 1) % n, 0}};
  }
  return Graph(std::move(adj), "ring-" + std::to_string(n));
}

/// The Cayley graph of the symmetric group S_k on the adjacent
/// transpositions: a node is a permutation of 0..k-1, and port p swaps
/// its entries at positions p and p + 1, entering through port p.
/// Relabelling the values is a port-preserving automorphism, so the
/// automorphisms act transitively; S_k is not abelian for k >= 3, so
/// Shrink falls below dist on some pairs and the orbit closure has real
/// work to do. The permutation of lexicographic rank i is node
/// 11 * i mod k!, so that node ids do not follow distances from node 0:
/// seeding the closure in node order instead of by distance gives wrong
/// cells here.
Graph bubble_sort_graph(std::uint32_t k) {
  std::vector<std::uint32_t> perm(k);
  std::iota(perm.begin(), perm.end(), 0u);
  std::vector<std::vector<std::uint32_t>> lex;
  do {
    lex.push_back(perm);
  } while (std::next_permutation(perm.begin(), perm.end()));
  std::map<std::vector<std::uint32_t>, Node> id;
  for (std::size_t i = 0; i < lex.size(); ++i) {
    id.emplace(lex[i], static_cast<Node>(i * 11 % lex.size()));
  }
  std::vector<std::vector<graph::HalfEdge>> adj(id.size());
  for (const auto& [node_perm, node] : id) {
    for (graph::Port p = 0; p + 1 < k; ++p) {
      std::vector<std::uint32_t> next = node_perm;
      std::swap(next[p], next[p + 1]);
      adj[node].push_back({id.at(next), p});
    }
  }
  return Graph(std::move(adj), "bubble-sort-" + std::to_string(k));
}

/// A cubic graph whose ports 0 and 1 step x -> sigma(x) and
/// x -> sigma^-1(x) (each entering through the other), and whose port 2
/// is the fixed-point-free involution tau, entering through port 2.
Graph schreier_cubic(const std::vector<Node>& sigma,
                     const std::vector<Node>& tau, std::string name) {
  std::vector<Node> inverse(sigma.size());
  for (Node x = 0; x < sigma.size(); ++x) inverse[sigma[x]] = x;
  std::vector<std::vector<graph::HalfEdge>> adj(sigma.size());
  for (Node x = 0; x < sigma.size(); ++x) {
    adj[x] = {{sigma[x], 1}, {inverse[x], 0}, {tau[x], 2}};
  }
  return Graph(std::move(adj), std::move(name));
}

/// One view class, but its tree-walk maps are not even bijections:
/// ports 0 and 1 step x -> x +- 1 mod 6, port 2 is (0 2)(1 4)(3 5).
Graph schreier6() {
  return schreier_cubic({1, 2, 3, 4, 5, 0}, {2, 4, 0, 5, 1, 3}, "schreier6");
}

/// One view class and a simple graph; its tree-walk maps are bijections
/// that do not commute with the port steps.
Graph cubic10() {
  return schreier_cubic({6, 9, 7, 2, 8, 4, 1, 0, 3, 5},
                        {4, 5, 8, 6, 0, 1, 3, 9, 2, 7}, "cubic10");
}

/// oriented_ring(6) plus a port 2 that is a self-loop at nodes 0..3 and
/// a second edge between nodes 4 and 5. A BFS from node 0 finds every
/// node through ports 0 and 1, so the tree-walk maps are rotations:
/// they commute with ports 0 and 1, and only port 2 tells that they are
/// not automorphisms.
Graph ring_with_loops() {
  std::vector<std::vector<graph::HalfEdge>> adj(6);
  for (Node x = 0; x < 6; ++x) {
    adj[x] = {{(x + 1) % 6, 1}, {(x + 5) % 6, 0}, {x, 2}};
  }
  adj[4][2] = {5, 2};
  adj[5][2] = {4, 2};
  return Graph(std::move(adj), "ring-with-loops");
}

/// Two disjoint copies of oriented_ring(n): every node has degree 2, but
/// a BFS from node 0 reaches only half of them.
Graph two_rings(std::uint32_t n) {
  std::vector<std::vector<graph::HalfEdge>> adj(2 * n);
  for (Node c = 0; c < 2 * n; c += n) {
    for (Node x = 0; x < n; ++x) {
      adj[c + x] = {{c + (x + 1) % n, 1}, {c + (x + n - 1) % n, 0}};
    }
  }
  return Graph(std::move(adj), "two-rings-" + std::to_string(n));
}

/// Every ordered cell of the table against the per-pair oracle (run on
/// the upper triangle; the lower one must mirror it).
void expect_matches_oracle(const Graph& g, const AllPairsShrink& all) {
  ASSERT_EQ(all.n, g.size());
  for (Node u = 0; u < g.size(); ++u) {
    for (Node v = u; v < g.size(); ++v) {
      const std::uint32_t oracle = shrink_with_witness(g, u, v).shrink;
      EXPECT_EQ(all.at(u, v), oracle) << "pair " << u << "," << v;
      EXPECT_EQ(all.at(v, u), oracle) << "pair " << v << "," << u;
    }
  }
}

/// shrink_all_pairs plus the path it took: true when it filled the table
/// on the pair-orbit path, which runs no distance row and no pull layer.
bool took_orbit_path(const Graph& g, AllPairsShrink& out) {
  const std::uint64_t orbits_before = shrink_transitive_table_count();
  const std::uint64_t rows_before = shrink_distance_row_count();
  const std::uint64_t pulls_before = shrink_pull_layer_count();
  out = shrink_all_pairs(g);
  const bool orbit = shrink_transitive_table_count() != orbits_before;
  if (orbit) {
    EXPECT_EQ(shrink_distance_row_count(), rows_before) << g.name();
    EXPECT_EQ(shrink_pull_layer_count(), pulls_before) << g.name();
  }
  return orbit;
}

/// Seeded graphs that drive every path of the kernel: graphs that take
/// the pair-orbit path, random graphs on which the level-0 closure of
/// the diagonal assigns every pair, graphs on which it assigns only the
/// diagonal, and graphs that mix both and pull some closure layers.
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
  // Graphs whose automorphisms act transitively take the pair-orbit
  // path.
  corpus.push_back(families::oriented_ring(11));
  corpus.push_back(families::oriented_torus(3, 5));
  corpus.push_back(families::hypercube(4));
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
  int orbits = 0;
  int level0_closes_all = 0;
  int diagonal_only = 0;
  int mixed = 0;
  std::uint64_t pull_layers = 0;
  for (const Graph& g : seeded_corpus()) {
    SCOPED_TRACE(g.name());
    const std::uint64_t orbits_before = shrink_transitive_table_count();
    const std::uint64_t rows_before = shrink_distance_row_count();
    const std::uint64_t pulls_before = shrink_pull_layer_count();
    const AllPairsShrink all = shrink_all_pairs(g);
    const bool orbit = shrink_transitive_table_count() != orbits_before;
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
    if (orbit) {
      ++orbits;
    } else if (rows == 0) {
      ++level0_closes_all;
    } else if (!zero_off_diagonal) {
      ++diagonal_only;
    } else {
      ++mixed;
    }
  }
  EXPECT_GT(orbits, 0);
  EXPECT_GT(level0_closes_all, 0);
  EXPECT_GT(diagonal_only, 0);
  EXPECT_GT(mixed, 0);
  EXPECT_GT(pull_layers, 0u);
}

TEST(ShrinkAllPairs, OrbitPathMatchesOracle) {
  std::vector<Graph> transitive;
  for (const std::uint32_t n : {1u, 2u}) {
    transitive.push_back(oriented_ring_any(n));
  }
  for (const std::uint32_t n : {3u, 63u, 64u, 65u, 130u}) {
    transitive.push_back(families::oriented_ring(n));
  }
  transitive.push_back(families::oriented_torus(3, 7));
  transitive.push_back(families::oriented_torus(6, 4));
  for (std::uint32_t dim = 1; dim <= 7; ++dim) {
    transitive.push_back(families::hypercube(dim));
  }
  transitive.push_back(families::two_node_graph());
  // On the abelian families above every orbit steps to itself
  // (Shrink == dist); the non-abelian bubble-sort graphs shrink.
  for (const std::uint32_t k : {3u, 4u, 5u}) {
    transitive.push_back(bubble_sort_graph(k));
  }
  std::uint64_t shrunk_pairs = 0;
  for (const Graph& g : transitive) {
    SCOPED_TRACE(g.name());
    AllPairsShrink all;
    EXPECT_TRUE(took_orbit_path(g, all));
    expect_matches_oracle(g, all);
    EXPECT_EQ(all.pairs_explored,
              static_cast<std::uint64_t>(g.size()) * (g.size() + 1) / 2);
    for (Node v = 0; v < g.size(); ++v) {
      if (all.at(0, v) < graph::distance(g, 0, v)) ++shrunk_pairs;
    }
  }
  EXPECT_GT(shrunk_pairs, 0u);
  // complete(6)'s port numbering is not preserved by any automorphism
  // that moves node 0, so it takes the level sweep.
  const Graph k6 = families::complete(6);
  AllPairsShrink all;
  EXPECT_FALSE(took_orbit_path(k6, all));
  expect_matches_oracle(k6, all);
}

/// Graphs that pass the degree test but not the rest of the orbit test
/// take the level sweep and still match the oracle.
TEST(ShrinkAllPairs, OrbitTestRejectsNonTransitiveGraphs) {
  for (const Graph& g : {schreier6(), cubic10()}) {
    SCOPED_TRACE(g.name());
    ASSERT_EQ(g.validate(), "");
    EXPECT_EQ(compute_view_classes(g).class_count, 1u);
    AllPairsShrink all;
    EXPECT_FALSE(took_orbit_path(g, all));
    expect_matches_oracle(g, all);
  }
  {
    const Graph g = ring_with_loops();
    AllPairsShrink all;
    EXPECT_FALSE(took_orbit_path(g, all));
    expect_matches_oracle(g, all);
  }
  const Graph g = two_rings(5);
  AllPairsShrink all;
  EXPECT_FALSE(took_orbit_path(g, all));
  expect_matches_oracle(g, all);
  for (Node u = 0; u < 5; ++u) {
    for (Node v = 5; v < 10; ++v) {
      EXPECT_EQ(all.at(u, v), graph::kUnreachable) << u << "," << v;
      EXPECT_EQ(all.at(v, u), graph::kUnreachable) << v << "," << u;
    }
  }
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

/// Every cell of the batched table against a closed-form distance.
template <typename Topology>
void expect_shrink_equals_distance(const Topology& topology, const Graph& g) {
  SCOPED_TRACE(g.name());
  const AllPairsShrink all = shrink_all_pairs(g);
  ASSERT_EQ(all.n, g.size());
  std::uint64_t mismatches = 0;
  for (Node u = 0; u < g.size(); ++u) {
    for (Node v = 0; v < g.size(); ++v) {
      if (all.at(u, v) != topology.distance(u, v) && ++mismatches <= 5) {
        ADD_FAILURE() << "pair " << u << "," << v << ": " << all.at(u, v)
                      << " vs distance " << topology.distance(u, v);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(ShrinkAllPairs, ImplicitFamiliesPinShrinkEqualsDistance) {
  // The implicit census (c2) classifies STICs via Shrink == dist on
  // vertex-transitive families. Pin that identity against the batched
  // kernel on the explicit twins, small and at census scale.
  for (const std::uint32_t n : {9u, 1024u}) {
    expect_shrink_equals_distance(families::OrientedRingTopology(n),
                                  families::oriented_ring(n));
  }
  for (const auto& [w, h] : {std::pair{3u, 4u}, std::pair{32u, 32u}}) {
    expect_shrink_equals_distance(families::OrientedTorusTopology(w, h),
                                  families::oriented_torus(w, h));
  }
  for (const std::uint32_t dim : {4u, 10u}) {
    expect_shrink_equals_distance(families::HypercubeTopology(dim),
                                  families::hypercube(dim));
  }
}

/// The census determinism contract: resolving the all-pairs table
/// through the cache from many threads, with the cache enabled or
/// disabled, always yields the same values — byte-identical once
/// serialized into census rows.
TEST(ShrinkAllPairs, IdenticalValuesAcrossThreadsAndCacheConfigs) {
  const Graph g = families::random_connected(20, 30, 73);
  const AllPairsShrink reference = shrink_all_pairs(g);

  cache::CacheConfig off;
  off.enabled = false;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{16}}) {
    for (const cache::CacheConfig& config : {cache::CacheConfig{}, off}) {
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
