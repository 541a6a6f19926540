#include <gtest/gtest.h>

#include <utility>

#include "graph/families/qhat.hpp"
#include "graph/families/qhat_implicit.hpp"
#include "support/splitmix.hpp"
#include "views/refinement.hpp"

namespace rdv::graph::families {
namespace {

TEST(QhatSize, Formula) {
  EXPECT_EQ(qhat_size(1), 1u + 2 * (3 - 1));
  EXPECT_EQ(qhat_size(2), 17u);
  EXPECT_EQ(qhat_size(3), 53u);
  EXPECT_EQ(qhat_size(4), 161u);
  EXPECT_EQ(qhat_leaves_per_type(2), 3u);
  EXPECT_EQ(qhat_leaves_per_type(4), 27u);
}

TEST(Dir, OppositePairs) {
  EXPECT_EQ(opposite(Dir::N), Dir::S);
  EXPECT_EQ(opposite(Dir::S), Dir::N);
  EXPECT_EQ(opposite(Dir::E), Dir::W);
  EXPECT_EQ(opposite(Dir::W), Dir::E);
}

class QhatExplicitTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(QhatExplicitTest, FourRegularAndSized) {
  const QhatGraph q = qhat_explicit(GetParam());
  EXPECT_EQ(q.graph.size(), qhat_size(GetParam()));
  EXPECT_TRUE(q.graph.validate().empty());
  for (Node v = 0; v < q.graph.size(); ++v) {
    EXPECT_EQ(q.graph.degree(v), 4u) << "node " << v;
  }
}

TEST_P(QhatExplicitTest, EdgesCarryOppositeDirections) {
  // Every edge has ports N-S or E-W at its extremities (Section 4).
  const QhatGraph q = qhat_explicit(GetParam());
  for (Node v = 0; v < q.graph.size(); ++v) {
    for (Port p = 0; p < 4; ++p) {
      const Step s = q.graph.step(v, p);
      EXPECT_EQ(static_cast<Dir>(s.entry_port),
                opposite(static_cast<Dir>(p)));
    }
  }
}

TEST_P(QhatExplicitTest, AllNodesSymmetric) {
  // "the view of each node of Qhat_h is identical, and hence all pairs
  // of nodes are symmetric."
  const QhatGraph q = qhat_explicit(GetParam());
  const views::ViewClasses classes =
      views::compute_view_classes(q.graph);
  EXPECT_EQ(classes.class_count, 1u);
}

TEST_P(QhatExplicitTest, LeafCountsPerType) {
  const QhatGraph q = qhat_explicit(GetParam());
  const std::uint64_t x = qhat_leaves_per_type(GetParam());
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(q.leaves_by_type[t].size(), x);
  }
}

INSTANTIATE_TEST_SUITE_P(Heights, QhatExplicitTest,
                         ::testing::Values(2u, 3u, 4u));

TEST(QhatExplicit, RejectsBadHeights) {
  EXPECT_THROW(qhat_explicit(1), std::invalid_argument);
  EXPECT_THROW(qhat_explicit(10), std::invalid_argument);
}

TEST(QhatZ, SizeAndDistance) {
  const std::uint32_t k = 2;  // D = 4, h = 8 would be the theorem regime
  const QhatGraph q = qhat_explicit(4);
  const auto z = qhat_z_set(q.graph, q.root, k);
  EXPECT_EQ(z.size(), 4u);  // 2^k
  for (const Node v : z) {
    EXPECT_EQ(distance(q.graph, q.root, v), 2 * k);
  }
  // All distinct.
  for (std::size_t i = 0; i < z.size(); ++i) {
    for (std::size_t j = i + 1; j < z.size(); ++j) {
      EXPECT_NE(z[i], z[j]);
    }
  }
}

TEST(QhatZ, MidpointsAreHalfway) {
  const std::uint32_t k = 2;
  const QhatGraph q = qhat_explicit(4);
  const auto z = qhat_z_set(q.graph, q.root, k);
  const auto mids = qhat_mid_set(q.graph, q.root, k);
  ASSERT_EQ(mids.size(), z.size());
  for (std::size_t i = 0; i < z.size(); ++i) {
    EXPECT_EQ(distance(q.graph, q.root, mids[i]), k);
    EXPECT_EQ(distance(q.graph, mids[i], z[i]), k);
  }
}

TEST(QhatImplicit, RankUnrankRoundTrip) {
  const QhatImplicitTopology topo(5);
  const std::uint64_t x = qhat_leaves_per_type(5);
  for (std::uint8_t last = 0; last < 4; ++last) {
    for (std::uint64_t i = 1; i <= x; i += 13) {
      const auto path = topo.leaf_unrank(static_cast<Dir>(last), i);
      ASSERT_EQ(path.size(), 5u);
      EXPECT_EQ(path.back(), static_cast<Dir>(last));
      EXPECT_EQ(topo.leaf_rank(path), i);
    }
  }
}

class QhatAgreementTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(QhatAgreementTest, ImplicitMatchesExplicit) {
  // Walk every port of every node and check the two constructions are
  // isomorphic under the path-string identification.
  const std::uint32_t h = GetParam();
  const QhatGraph q = qhat_explicit(h);
  const QhatImplicitTopology topo(h);
  std::vector<Node> to_implicit(q.graph.size());
  for (Node v = 0; v < q.graph.size(); ++v) {
    to_implicit[v] = topo.node_at(q.node_paths[v]);
  }
  for (Node v = 0; v < q.graph.size(); ++v) {
    ASSERT_EQ(topo.degree(to_implicit[v]), q.graph.degree(v));
    for (Port p = 0; p < 4; ++p) {
      const Step se = q.graph.step(v, p);
      const Step si = topo.step(to_implicit[v], p);
      EXPECT_EQ(si.to, to_implicit[se.to])
          << "h=" << h << " node " << v << " port " << p;
      EXPECT_EQ(si.entry_port, se.entry_port);
    }
  }
}

TEST_P(QhatAgreementTest, MemoMatchesExplicitInShuffledOrder) {
  // Every (v, p) once in a seeded shuffled order on a fresh topology,
  // each query twice: the first may hit an entry filled from the far
  // end of an earlier edge, the second always hits the memo.
  const std::uint32_t h = GetParam();
  const QhatGraph q = qhat_explicit(h);
  const QhatImplicitTopology topo(h);
  std::vector<Node> to_implicit(q.graph.size());
  for (Node v = 0; v < q.graph.size(); ++v) {
    to_implicit[v] = topo.node_at(q.node_paths[v]);
  }
  std::vector<std::pair<Node, Port>> queries;
  for (Node v = 0; v < q.graph.size(); ++v) {
    for (Port p = 0; p < 4; ++p) queries.emplace_back(v, p);
  }
  support::SplitMix64 rng(0x5eed0000u + h);
  for (std::size_t i = queries.size(); i > 1; --i) {
    std::swap(queries[i - 1], queries[rng.next_below(i)]);
  }
  for (const auto& [v, p] : queries) {
    const Step se = q.graph.step(v, p);
    for (int repeat = 0; repeat < 2; ++repeat) {
      const Step si = topo.step(to_implicit[v], p);
      ASSERT_EQ(si.to, to_implicit[se.to])
          << "h=" << h << " node " << v << " port " << p << " #" << repeat;
      ASSERT_EQ(si.entry_port, se.entry_port);
    }
  }
  EXPECT_EQ(topo.materialized(), q.graph.size());
}

INSTANTIATE_TEST_SUITE_P(Heights, QhatAgreementTest,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(QhatImplicit, NodeAtRejectsInvalidPaths) {
  const QhatImplicitTopology topo(4);
  const std::vector<Dir> out_of_range{Dir::N, static_cast<Dir>(5)};
  EXPECT_THROW((void)topo.node_at(out_of_range), std::invalid_argument);
  const std::vector<Dir> lone{static_cast<Dir>(4)};
  EXPECT_THROW((void)topo.node_at(lone), std::invalid_argument);
  const std::vector<Dir> back{Dir::E, Dir::W};
  EXPECT_THROW((void)topo.node_at(back), std::invalid_argument);
  const std::vector<Dir> too_long(5, Dir::N);
  EXPECT_THROW((void)topo.node_at(too_long), std::invalid_argument);
  EXPECT_EQ(topo.materialized(), 1u);  // nothing phantom was interned
}

TEST(QhatImplicit, SeededWalkAtTheoremScaleRoundTrips) {
  // h = 28 (the k = 7 regime): a long random walk reaches leaves and
  // crosses leaf-to-leaf edges; every step must lead back through its
  // entry port and every node must be the node of its own path.
  const QhatImplicitTopology topo(28);
  support::SplitMix64 rng(28);
  std::vector<Node> walk{topo.root()};
  std::vector<Port> ports;    // ports[i]: the port taken at walk[i]
  std::vector<Port> entries;  // entries[i]: the port walk[i + 1] is entered by
  for (int i = 0; i < 100000; ++i) {
    const Node v = walk.back();
    const auto p = static_cast<Port>(rng.next_below(4));
    const Step s = topo.step(v, p);
    ASSERT_EQ(topo.step(s.to, s.entry_port), (Step{v, p})) << "step " << i;
    ASSERT_EQ(topo.node_at(topo.path_of(s.to)), s.to) << "step " << i;
    walk.push_back(s.to);
    ports.push_back(p);
    entries.push_back(s.entry_port);
  }
  EXPECT_GT(topo.materialized(), 1000u);
  // The round trip above reads the reverse-filled memo. Retracing the
  // walk backwards on a fresh topology resolves most edges from their
  // other end instead, so it checks that the far end really leads back.
  const QhatImplicitTopology fresh(28);
  Node u = fresh.node_at(topo.path_of(walk.back()));
  for (std::size_t i = entries.size(); i-- > 0;) {
    const Step s = fresh.step(u, entries[i]);
    ASSERT_EQ(fresh.path_of(s.to), topo.path_of(walk[i])) << "step " << i;
    ASSERT_EQ(s.entry_port, ports[i]) << "step " << i;
    u = s.to;
  }
}

TEST(QhatImplicit, LazyMaterialization) {
  const QhatImplicitTopology topo(30);  // explicit would be ~2 * 3^30 nodes
  Node v = topo.root();
  // Take a 28-step zig-zag walk (staying above the leaves); only the
  // visited ball materializes.
  for (int i = 0; i < 14; ++i) {
    v = topo.step(v, to_port(Dir::N)).to;
    v = topo.step(v, to_port(Dir::E)).to;
  }
  EXPECT_LE(topo.materialized(), 29u * 2);
  const auto& path = topo.path_of(v);
  EXPECT_EQ(path.size(), 28u);
}

TEST(QhatImplicit, ZSetWorksAtTheoremScale) {
  // Theorem 4.1 regime: D = 2k, h = 2D. For k = 5: h = 20 (explicit
  // size would be ~7 * 10^9).
  const std::uint32_t k = 5;
  const QhatImplicitTopology topo(4 * k);
  const auto z = qhat_z_set(topo, topo.root(), k);
  EXPECT_EQ(z.size(), 32u);
  for (const Node v : z) {
    EXPECT_EQ(topo.path_of(v).size(), 2 * k);
  }
}

}  // namespace
}  // namespace rdv::graph::families
