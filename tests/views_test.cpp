#include <gtest/gtest.h>

#include "graph/families/families.hpp"
#include "view_tree.hpp"
#include "views/quotient.hpp"
#include "views/refinement.hpp"

namespace rdv::views {
namespace {

using graph::Graph;
using graph::Node;
namespace families = rdv::graph::families;

TEST(Refinement, OrientedRingFullySymmetric) {
  const Graph g = families::oriented_ring(7);
  const ViewClasses c = compute_view_classes(g);
  EXPECT_EQ(c.class_count, 1u);
  EXPECT_TRUE(c.symmetric(0, 4));
}

TEST(Refinement, OrientedTorusFullySymmetric) {
  const Graph g = families::oriented_torus(4, 5);
  EXPECT_EQ(compute_view_classes(g).class_count, 1u);
}

TEST(Refinement, HypercubeFullySymmetric) {
  const Graph g = families::hypercube(3);
  EXPECT_EQ(compute_view_classes(g).class_count, 1u);
}

TEST(Refinement, PathClassesMirrorButPortsBreak) {
  // path(4): 0-1-2-3. Endpoints 0 and 3 are symmetric by shape, but our
  // port convention (interior port 0 toward the smaller id) breaks the
  // reflection for interior nodes... and with interior nodes split, the
  // endpoints split too (their neighbors differ).
  const Graph g = families::path_graph(4);
  const ViewClasses c = compute_view_classes(g);
  EXPECT_FALSE(c.symmetric(1, 2));
  EXPECT_FALSE(c.symmetric(0, 3));
}

TEST(Refinement, PathOfThreeEndpointsSymmetric) {
  // path(3): 0-1-2 — node 1 sees both endpoints through distinct ports
  // but the endpoints' views are genuinely equal: each is a degree-1
  // node attached by the middle node's distinct ports... The views
  // differ only if the port labels differ; endpoint 0 enters 1 by port
  // 0, endpoint 2 enters 1 by port 1, so their views differ at depth 1.
  const Graph g = families::path_graph(3);
  const ViewClasses c = compute_view_classes(g);
  EXPECT_FALSE(c.symmetric(0, 2));
}

TEST(Refinement, SymmetricDoubleTreeMirrors) {
  const Graph g = families::symmetric_double_tree(2, 2);
  const ViewClasses c = compute_view_classes(g);
  const Node half = g.size() / 2;
  for (Node v = 0; v < half; ++v) {
    EXPECT_TRUE(c.symmetric(v, v + half)) << v;
  }
  // Nodes at different depths are never symmetric.
  EXPECT_FALSE(c.symmetric(0, 1));
}

TEST(Refinement, ScrambledRingBreaksSymmetryForSomePair) {
  const Graph g = families::scrambled_ring(8, 3);
  const ViewClasses c = compute_view_classes(g);
  // Port scrambling almost surely leaves multiple classes; at minimum
  // the partition must be a valid function.
  ASSERT_EQ(c.class_of.size(), g.size());
  EXPECT_GE(c.class_count, 1u);
}

TEST(Refinement, MatchesExplicitViewsOnCorpus) {
  // The refinement fixpoint must agree with explicit truncated views at
  // depth >= n-1 on every pair, across assorted graphs.
  const std::vector<Graph> corpus = {
      families::oriented_ring(5),       families::path_graph(5),
      families::complete(4),            families::symmetric_double_tree(2, 1),
      families::random_connected(7, 3, 9),
      families::scrambled_ring(6, 21),
  };
  for (const Graph& g : corpus) {
    const ViewClasses c = compute_view_classes(g);
    const std::uint32_t depth = g.size();  // > n-1 for good measure
    for (Node u = 0; u < g.size(); ++u) {
      for (Node v = u + 1; v < g.size(); ++v) {
        EXPECT_EQ(c.symmetric(u, v), views_equal_to_depth(g, u, v, depth))
            << g.name() << " nodes " << u << "," << v;
      }
    }
  }
}

TEST(ViewTree, EncodingDepthZeroIsDegree) {
  const Graph g = families::path_graph(3);
  EXPECT_EQ(view_encoding(g, 0, 0), "(1:)");
  EXPECT_EQ(view_encoding(g, 1, 0), "(2:)");
}

TEST(SymmetricPairs, CountsOnKnownFamilies) {
  // Oriented ring on n nodes: all pairs symmetric: n(n-1)/2.
  const Graph ring = families::oriented_ring(6);
  EXPECT_EQ(symmetric_pairs(ring).size(), 15u);
  // Double tree with halves of size s: exactly s mirror pairs...plus
  // any within-half symmetry; with branching 1 (a path of two chains)
  // none exist within halves. b=1,t=2: halves are 3-chains.
  const Graph dt = families::symmetric_double_tree(1, 2);
  EXPECT_EQ(symmetric_pairs(dt).size(), 3u);
}

TEST(ViewDistance, ZeroWhenDegreesDiffer) {
  const Graph g = families::path_graph(4);
  EXPECT_EQ(view_distance(g, 0, 1), 0u);  // degree 1 vs 2
}

TEST(ViewDistance, SymmetricPairsReportEqual) {
  const Graph g = families::oriented_ring(6);
  EXPECT_EQ(view_distance(g, 0, 3), kViewsEqual);
}

TEST(ViewDistance, MatchesExplicitViewComparison) {
  const std::vector<Graph> corpus = {
      families::path_graph(5),
      families::scrambled_ring(6, 21),
      families::random_connected(7, 3, 9),
      families::grid(2, 3),
  };
  for (const Graph& g : corpus) {
    for (Node u = 0; u < g.size(); ++u) {
      for (Node v = u + 1; v < g.size(); ++v) {
        const std::uint32_t dist = view_distance(g, u, v);
        if (dist == kViewsEqual) {
          EXPECT_TRUE(views_equal_to_depth(g, u, v, g.size()))
              << g.name() << " " << u << "," << v;
        } else {
          // Views agree strictly below `dist` and differ at `dist`.
          if (dist > 0) {
            EXPECT_TRUE(views_equal_to_depth(g, u, v, dist - 1))
                << g.name() << " " << u << "," << v;
          }
          EXPECT_FALSE(views_equal_to_depth(g, u, v, dist))
              << g.name() << " " << u << "," << v;
        }
      }
    }
  }
}

TEST(Refinement, StarLeavesAreNotSymmetric) {
  // Each leaf enters the hub by a distinct port, so the hub's port
  // numbering labels the leaves: views differ at depth 1.
  const Graph g = families::star(7);
  const ViewClasses c = compute_view_classes(g);
  EXPECT_EQ(c.class_count, 7u);
  EXPECT_EQ(view_distance(g, 1, 2), 1u);
}

TEST(Quotient, OrientedRingCollapsesToOneClass) {
  const Graph g = families::oriented_ring(9);
  const ViewClasses c = compute_view_classes(g);
  const QuotientGraph q = build_quotient(g, c);
  ASSERT_EQ(q.class_count(), 1u);
  EXPECT_EQ(q.multiplicity[0], 9u);
  ASSERT_EQ(q.arcs[0].size(), 2u);
  EXPECT_EQ(q.arcs[0][0].to_class, 0u);
  EXPECT_EQ(q.arcs[0][0].rev_port, 1u);
}

TEST(Quotient, MultiplicitiesSumToSize) {
  const Graph g = families::random_connected(10, 5, 4);
  const ViewClasses c = compute_view_classes(g);
  const QuotientGraph q = build_quotient(g, c);
  std::uint32_t total = 0;
  for (std::uint32_t m : q.multiplicity) total += m;
  EXPECT_EQ(total, g.size());
}

}  // namespace
}  // namespace rdv::views
