#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/automorphism.hpp"
#include "graph/builder.hpp"
#include "graph/families/families.hpp"
#include "graph/serialize.hpp"
#include "graph/walk.hpp"

namespace rdv::graph {
namespace {

Graph square() {
  // 4-cycle with oriented ports.
  GraphBuilder b(4, "square");
  b.connect(0, 0, 1, 1);
  b.connect(1, 0, 2, 1);
  b.connect(2, 0, 3, 1);
  b.connect(3, 0, 0, 1);
  return std::move(b).build();
}

TEST(Builder, BuildsValidGraph) {
  const Graph g = square();
  EXPECT_EQ(g.size(), 4u);
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_TRUE(g.validate().empty());
}

TEST(Builder, RejectsSelfLoop) {
  GraphBuilder b(2, "bad");
  EXPECT_THROW(b.connect(0, 0, 0, 1), std::invalid_argument);
}

TEST(Builder, RejectsPortReuse) {
  GraphBuilder b(3, "bad");
  b.connect(0, 0, 1, 0);
  EXPECT_THROW(b.connect(0, 0, 2, 0), std::invalid_argument);
}

TEST(Builder, RejectsOutOfRangeNode) {
  GraphBuilder b(2, "bad");
  EXPECT_THROW(b.connect(0, 0, 5, 0), std::invalid_argument);
}

TEST(Builder, RejectsPortGap) {
  GraphBuilder b(2, "bad");
  b.connect(0, 1, 1, 0);  // node 0 skips port 0
  EXPECT_THROW(std::move(b).build(), std::invalid_argument);
}

TEST(Builder, RejectsIsolatedNode) {
  GraphBuilder b(3, "bad");
  b.connect(0, 0, 1, 0);
  EXPECT_THROW(std::move(b).build(), std::invalid_argument);
}

TEST(Builder, RejectsDisconnected) {
  GraphBuilder b(4, "bad");
  b.connect(0, 0, 1, 0);
  b.connect(2, 0, 3, 0);
  EXPECT_THROW(std::move(b).build(), std::invalid_argument);
}

TEST(Builder, RejectsParallelEdges) {
  GraphBuilder b(2, "bad");
  b.connect(0, 0, 1, 0);
  b.connect(0, 1, 1, 1);
  EXPECT_THROW(std::move(b).build(), std::invalid_argument);
}

TEST(Graph, StepReciprocal) {
  const Graph g = square();
  for (Node v = 0; v < g.size(); ++v) {
    for (Port p = 0; p < g.degree(v); ++p) {
      const Step s = g.step(v, p);
      const Step back = g.step(s.to, s.entry_port);
      EXPECT_EQ(back.to, v);
      EXPECT_EQ(back.entry_port, p);
    }
  }
}

TEST(Graph, BfsDistances) {
  const Graph g = square();
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], 2u);
  EXPECT_EQ(dist[3], 1u);
  EXPECT_EQ(distance(g, 1, 3), 2u);
}

TEST(Walk, ApplyPorts) {
  const Graph g = square();
  const std::vector<Port> alpha{0, 0, 0};
  const auto end = apply_ports(g, 0, alpha);
  ASSERT_TRUE(end.has_value());
  EXPECT_EQ(*end, 3u);
}

TEST(Walk, ApplyPortsRejectsBadPort) {
  const Graph g = square();
  const std::vector<Port> alpha{5};
  EXPECT_FALSE(apply_ports(g, 0, alpha).has_value());
}

TEST(Walk, ReversePathReturnsHome) {
  const Graph g = families::random_connected(12, 6, 3);
  const std::vector<Port> alpha{0, 0, 0, 0, 0};  // port 0 always exists
  const auto entries = entry_ports_along(g, 0, alpha);
  ASSERT_EQ(entries.size(), alpha.size());
  const auto fwd = apply_ports(g, 0, alpha);
  ASSERT_TRUE(fwd.has_value());
  const auto back = apply_ports(g, *fwd, reverse_path(entries));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, 0u);
}

// On the oriented ring the automorphisms are the rotations: the tree
// walk from root r with image a is x -> x + a - r, and it commutes.
TEST(Automorphism, RingRotationsFromAnyRoot) {
  const Graph g = families::oriented_ring(5);
  std::vector<Node> map(g.size());
  for (Node r = 0; r < g.size(); ++r) {
    const TreeWalk tree(g, r);
    for (Node a = 0; a < g.size(); ++a) {
      ASSERT_TRUE(tree.automorphism(a, map));
      for (Node x = 0; x < g.size(); ++x) {
        EXPECT_EQ(map[x], (x + a + g.size() - r) % g.size());
      }
    }
  }
  EXPECT_EQ(automorphism_orbits(g), std::vector<Node>(g.size(), 0));
}

// Transitive families have one orbit; a candidate map to a node of
// another degree, or one that breaks a port step, is rejected.
TEST(Automorphism, OrbitsAndRejectedCandidates) {
  for (const Graph& g : {families::hypercube(3), families::oriented_torus(3, 4),
                         families::two_node_graph()}) {
    EXPECT_EQ(automorphism_orbits(g), std::vector<Node>(g.size(), 0))
        << g.name();
  }
  // path(3): the middle node has degree 2, the ends degree 1.
  const Graph path = families::path_graph(3);
  const std::vector<Node> orbit = automorphism_orbits(path);
  std::vector<Node> map(path.size());
  for (Node x = 0; x < path.size(); ++x) {
    if (path.degree(x) == 2) {
      EXPECT_EQ(orbit[x], x);
    }
    EXPECT_TRUE(TreeWalk(path, x).automorphism(x, map));
    for (Node y = 0; y < path.size(); ++y) {
      if (path.degree(x) != path.degree(y)) {
        EXPECT_FALSE(TreeWalk(path, x).automorphism(y, map)) << x << y;
      }
    }
  }
  // Scrambled rings are 2-regular: only the port steps tell their nodes
  // apart. Seed 1 keeps a half-turn, seed 3 no map but the identity.
  EXPECT_EQ(automorphism_orbits(families::scrambled_ring(6, 1)),
            (std::vector<Node>{0, 1, 2, 0, 1, 2}));
  EXPECT_EQ(automorphism_orbits(families::scrambled_ring(6, 3)),
            (std::vector<Node>{0, 1, 2, 3, 4, 5}));
  // A star's leaves share a degree, but port 0 of the centre leads to
  // one leaf only, so no two nodes are carried onto each other.
  const Graph star = families::star(4);
  const std::vector<Node> alone = automorphism_orbits(star);
  for (Node x = 0; x < star.size(); ++x) EXPECT_EQ(alone[x], x);
}

TEST(Serialize, TextRoundTrip) {
  const Graph g = families::random_connected(9, 4, 11);
  const Graph g2 = from_text(to_text(g));
  ASSERT_EQ(g2.size(), g.size());
  for (Node v = 0; v < g.size(); ++v) {
    ASSERT_EQ(g2.degree(v), g.degree(v));
    for (Port p = 0; p < g.degree(v); ++p) {
      EXPECT_EQ(g2.step(v, p), g.step(v, p));
    }
  }
}

TEST(Serialize, DotContainsEdges) {
  const Graph g = square();
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
  EXPECT_NE(dot.find("graph"), std::string::npos);
}

TEST(Serialize, FromTextRejectsGarbage) {
  EXPECT_THROW(from_text("nonsense"), std::invalid_argument);
}

}  // namespace
}  // namespace rdv::graph
