#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cache/artifact_cache.hpp"
#include "graph/families/families.hpp"
#include "graph/families/qhat.hpp"
#include "graph/walk.hpp"
#include "views/refinement.hpp"
#include "views/shrink.hpp"

namespace rdv::views {
namespace {

using graph::Graph;
using graph::Node;
namespace families = rdv::graph::families;

TEST(Shrink, OrientedRingEqualsDistance) {
  // Rotation symmetry: same port sequence moves both agents in
  // lockstep, so the gap never changes — Shrink = dist (paper's torus
  // remark, in one dimension).
  const Graph g = families::oriented_ring(8);
  for (Node v = 1; v < 8; ++v) {
    EXPECT_EQ(shrink(g, 0, v), graph::distance(g, 0, v)) << v;
  }
}

TEST(Shrink, OrientedTorusEqualsDistance) {
  // The paper, after Definition 3.1: "in an oriented torus ...
  // Shrink(u,v) is equal to the distance between u and v".
  const Graph g = families::oriented_torus(4, 4);
  for (Node v = 1; v < g.size(); ++v) {
    EXPECT_EQ(shrink(g, 0, v), graph::distance(g, 0, v)) << v;
  }
}

TEST(Shrink, SymmetricDoubleTreeIsOne) {
  // The paper, after Definition 3.1: in a symmetric tree composed of a
  // central edge with port-preserving isomorphic trees on both ends,
  // Shrink(u,v) = 1 for any symmetric pair, at any distance.
  for (std::uint32_t b : {1u, 2u, 3u}) {
    for (std::uint32_t t : {1u, 2u, 3u}) {
      const Graph g = families::symmetric_double_tree(b, t);
      const auto pairs = symmetric_pairs(g, *cache::cached_view_classes(g));
      ASSERT_FALSE(pairs.empty());
      for (const auto& [u, v] : pairs) {
        EXPECT_EQ(shrink(g, u, v), 1u)
            << g.name() << " pair " << u << "," << v;
      }
    }
  }
}

TEST(Shrink, DistanceGrowsButShrinkStaysOne) {
  // The motivating contrast: distance between mirror leaves is
  // 2*height+1, Shrink stays 1.
  const Graph g = families::symmetric_double_tree(2, 3);
  const Node half = g.size() / 2;
  const Node deep_leaf = half - 1;  // last node of first copy = a leaf
  EXPECT_EQ(graph::distance(g, deep_leaf, deep_leaf + half), 7u);
  EXPECT_EQ(shrink(g, deep_leaf, deep_leaf + half), 1u);
}

TEST(Shrink, WitnessIsConsistent) {
  const Graph g = families::symmetric_double_tree(2, 2);
  const Node half = g.size() / 2;
  const ShrinkResult r = shrink_with_witness(g, half - 1, g.size() - 1);
  EXPECT_EQ(r.shrink, 1u);
  const auto a = graph::apply_ports(g, half - 1, r.witness);
  const auto b = graph::apply_ports(g, g.size() - 1, r.witness);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(*a, r.closest_u);
  EXPECT_EQ(*b, r.closest_v);
  EXPECT_EQ(graph::distance(g, *a, *b), r.shrink);
}

TEST(Shrink, EmptySequenceWitnessesDistanceUpperBound) {
  // Shrink <= dist always (alpha = empty sequence).
  const Graph g = families::random_connected(12, 8, 17);
  for (Node u = 0; u < g.size(); ++u) {
    for (Node v = u + 1; v < g.size(); ++v) {
      EXPECT_LE(shrink(g, u, v), graph::distance(g, u, v));
    }
  }
}

TEST(Shrink, SymmetricPairsHavePositiveShrink) {
  // Shrink(u,v) = 0 for a symmetric pair would contradict the
  // impossibility of simultaneous-start rendezvous (Lemma 3.1 with
  // delta = 0).
  const std::vector<Graph> corpus = {
      families::oriented_ring(6),
      families::hypercube(3),
      families::symmetric_double_tree(2, 2),
      families::oriented_torus(3, 3),
  };
  for (const Graph& g : corpus) {
    const auto pairs = symmetric_pairs(g, *cache::cached_view_classes(g));
    for (const auto& [u, v] : pairs) {
      EXPECT_GT(shrink(g, u, v), 0u) << g.name();
    }
  }
}

TEST(Shrink, QhatZPairsBounds) {
  // On Q-hat, pairs (r, v) with v in Z at distance D = 2k form feasible
  // STICs at delta = D (Theorem 4.1's setting): Shrink is positive (all
  // pairs are symmetric) and at most the distance D.
  const std::uint32_t k = 1;
  const auto q = families::qhat_explicit(6);  // h = 6 > D: v is interior
  const auto z = families::qhat_z_set(q.graph, q.root, k);
  for (const Node v : z) {
    const std::uint32_t s = shrink(q.graph, q.root, v);
    EXPECT_GT(s, 0u);
    EXPECT_LE(s, 2 * k);
  }
}

TEST(Shrink, CompleteGraphIsAtMostOne) {
  const Graph g = families::complete(5);
  for (Node v = 1; v < 5; ++v) {
    EXPECT_LE(shrink(g, 0, v), 1u);
  }
}

TEST(Shrink, DisconnectedPairReturnsUnreachableWithEmptyWitness) {
  // Regression: the old implementation scanned for a "closest" pair
  // even when no product state was reachable, fabricating a bogus
  // witness for a disconnected input. The contract is now explicit:
  // shrink == kUnreachable, empty witness, closest == kNoNode. Built
  // through the public Graph constructor — GraphBuilder rejects
  // disconnected graphs, shrink_with_witness must still be total.
  std::vector<std::vector<graph::HalfEdge>> adj(4);
  adj[0] = {{1, 0}};
  adj[1] = {{0, 0}};
  adj[2] = {{3, 0}};
  adj[3] = {{2, 0}};
  const Graph g(std::move(adj), "two-edges");
  const ShrinkResult r = shrink_with_witness(g, 0, 2);
  EXPECT_EQ(r.shrink, graph::kUnreachable);
  EXPECT_TRUE(r.witness.empty());
  EXPECT_EQ(r.closest_u, graph::kNoNode);
  EXPECT_EQ(r.closest_v, graph::kNoNode);

  // Same-component pairs on the same graph still resolve normally.
  const ShrinkResult same = shrink_with_witness(g, 0, 1);
  EXPECT_EQ(same.shrink, 1u);
}

TEST(Shrink, FlatParentTableMatchesReferenceBfs) {
  // The parent table moved from unordered_map<uint64_t, Parent> to a
  // flat vector keyed by pair id. Pin the refactor against a
  // test-local reference BFS over the product graph: same minimum
  // distance, and the returned witness still walks both agents to a
  // closest pair at exactly that distance.
  const std::vector<Graph> corpus = {
      families::random_connected(10, 14, 41),
      families::scrambled_ring(9, 6),
      families::grid(3, 3),
  };
  for (const Graph& g : corpus) {
    const std::vector<std::vector<std::uint32_t>> dist = [&g] {
      std::vector<std::vector<std::uint32_t>> d;
      d.reserve(g.size());
      for (Node v = 0; v < g.size(); ++v) {
        d.push_back(graph::bfs_distances(g, v));
      }
      return d;
    }();
    for (Node u = 0; u < g.size(); ++u) {
      for (Node v = u + 1; v < g.size(); ++v) {
        // Reference: plain queue BFS over product states (a, b).
        const std::size_t n = g.size();
        std::vector<char> seen(n * n, 0);
        std::vector<std::uint64_t> frontier = {u * n + v};
        seen[u * n + v] = 1;
        std::uint32_t best = dist[u][v];
        while (!frontier.empty()) {
          std::vector<std::uint64_t> next;
          for (const std::uint64_t id : frontier) {
            const Node a = static_cast<Node>(id / n);
            const Node b = static_cast<Node>(id % n);
            best = std::min(best, dist[a][b]);
            const graph::Port ports =
                std::min(g.degree(a), g.degree(b));
            for (graph::Port p = 0; p < ports; ++p) {
              const std::uint64_t to =
                  static_cast<std::uint64_t>(g.step(a, p).to) * n +
                  g.step(b, p).to;
              if (seen[to] == 0) {
                seen[to] = 1;
                next.push_back(to);
              }
            }
          }
          frontier = std::move(next);
        }
        const ShrinkResult r = shrink_with_witness(g, u, v);
        ASSERT_EQ(r.shrink, best) << g.name() << " " << u << "," << v;
        const auto a = graph::apply_ports(g, u, r.witness);
        const auto b = graph::apply_ports(g, v, r.witness);
        ASSERT_TRUE(a && b);
        EXPECT_EQ(*a, r.closest_u);
        EXPECT_EQ(*b, r.closest_v);
        EXPECT_EQ(graph::distance(g, *a, *b), r.shrink);
      }
    }
  }
}

}  // namespace
}  // namespace rdv::views
