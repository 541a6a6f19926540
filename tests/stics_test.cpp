#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "analysis/feasibility.hpp"
#include "analysis/stics.hpp"
#include "core/universal_rv.hpp"
#include "graph/families/families.hpp"
#include "sweep/sweep.hpp"
#include "views/shrink.hpp"

namespace rdv::analysis {
namespace {

using graph::Graph;
using graph::Node;
namespace families = rdv::graph::families;

TEST(Stics, EnumerationCounts) {
  const Graph g = families::path_graph(3);
  const auto stics = enumerate_stics(g, 2);
  // 3*2 ordered pairs * 3 delays.
  EXPECT_EQ(stics.size(), 18u);
}

TEST(Classify, SymmetricRequiresShrinkDelay) {
  const Graph g = families::oriented_ring(6);
  // (0, 3): symmetric, Shrink = 3.
  for (std::uint64_t delay = 0; delay <= 5; ++delay) {
    const auto cls = classify_stic(g, Stic{0, 3, delay});
    EXPECT_TRUE(cls.symmetric);
    EXPECT_EQ(cls.shrink, 3u);
    EXPECT_EQ(cls.feasible, delay >= 3);
  }
}

TEST(Classify, NonsymmetricAlwaysFeasible) {
  const Graph g = families::path_graph(4);
  for (std::uint64_t delay = 0; delay <= 3; ++delay) {
    const auto cls = classify_stic(g, Stic{0, 2, delay});
    EXPECT_FALSE(cls.symmetric);
    EXPECT_TRUE(cls.feasible);
  }
}

// Classification reads Shrink from the cached all-pairs table; the
// per-pair product BFS is the oracle. Every ordered pair must report
// the same value, nonsymmetric pairs (diagnostics only) included.
// Returns the number of nonsymmetric ordered pairs checked.
std::size_t expect_shrink_matches_pair_bfs(const Graph& g) {
  std::size_t nonsymmetric = 0;
  for (Node u = 0; u < g.size(); ++u) {
    for (Node v = 0; v < g.size(); ++v) {
      if (u == v) continue;
      const ClassifiedStic cls = classify_stic(g, Stic{u, v, 0});
      EXPECT_EQ(cls.shrink, views::shrink(g, u, v)) << u << "," << v;
      if (!cls.symmetric) ++nonsymmetric;
    }
  }
  return nonsymmetric;
}

TEST(Classify, ShrinkMatchesPairBfsOnNonsymmetricRandomGraph) {
  const Graph g = families::random_connected(10, 6, 7);
  EXPECT_GT(expect_shrink_matches_pair_bfs(g), 0u);
}

TEST(Classify, ShrinkIsUnreachableAcrossComponents) {
  // Two disjoint 2-cycles, built through the public Graph constructor,
  // which accepts disconnected graphs.
  std::vector<std::vector<graph::HalfEdge>> adj(4);
  adj[0] = {{1, 0}};
  adj[1] = {{0, 0}};
  adj[2] = {{3, 0}};
  adj[3] = {{2, 0}};
  const Graph g(std::move(adj), "two-edges");
  (void)expect_shrink_matches_pair_bfs(g);
  EXPECT_EQ(classify_stic(g, Stic{0, 2, 5}).shrink, graph::kUnreachable);
  EXPECT_EQ(classify_stic(g, Stic{3, 1, 5}).shrink, graph::kUnreachable);
}

TEST(FeasibilitySweep, TwoNodeGraphMatchesCharacterization) {
  // Full cross-check of Corollary 3.1 on the two-node graph with
  // UniversalRV: [(0,1), 0] infeasible, [(0,1), delta>=1] feasible.
  const Graph g = families::two_node_graph();
  core::UniversalOptions options;
  options.max_phases = 60;
  sim::RunConfig config;
  config.max_rounds = 1u << 22;
  const SweepSummary summary = sweep::feasibility_sweep(
      g, 2, core::universal_rv_program(options), config);
  EXPECT_EQ(summary.checks.size(), 6u);
  EXPECT_EQ(summary.feasible, 4u);    // delays 1,2 in both orders
  EXPECT_EQ(summary.infeasible, 2u);  // delay 0 in both orders
  EXPECT_EQ(summary.inconsistent, 0u);
}

TEST(FeasibilitySweep, Path3MatchesCharacterization) {
  // path(3): all pairs nonsymmetric -> everything feasible.
  const Graph g = families::path_graph(3);
  core::UniversalOptions options;
  options.max_phases = 120;
  sim::RunConfig config;
  config.max_rounds = 1u << 23;
  const SweepSummary summary = sweep::feasibility_sweep(
      g, 1, core::universal_rv_program(options), config);
  EXPECT_EQ(summary.infeasible, 0u);
  EXPECT_EQ(summary.inconsistent, 0u);
}

}  // namespace
}  // namespace rdv::analysis
