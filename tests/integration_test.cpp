#include <gtest/gtest.h>

#include "analysis/feasibility.hpp"
#include "analysis/optimal_search.hpp"
#include "cache/artifact_cache.hpp"
#include "core/bounds.hpp"
#include "core/symm_rv.hpp"
#include "core/universal_rv.hpp"
#include "graph/families/families.hpp"
#include "graph/families/qhat.hpp"
#include "sim/engine.hpp"
#include "support/saturating.hpp"
#include "sweep/sweep.hpp"
#include "uxs/verifier.hpp"
#include "views/refinement.hpp"
#include "views/shrink.hpp"

namespace rdv {
namespace {

using graph::Graph;
using graph::Node;
namespace families = rdv::graph::families;

TEST(Integration, UniversalOnSymmetricDoubleTree) {
  // Feasible symmetric STIC on the paper's Shrink = 1 family, solved
  // with zero knowledge.
  const Graph g = families::symmetric_double_tree(1, 1);
  ASSERT_TRUE(views::symmetric(g, 1, 3));
  ASSERT_EQ(views::shrink(g, 1, 3), 1u);
  core::UniversalOptions options;
  options.max_phases = 120;
  sim::RunConfig config;
  config.max_rounds = 1u << 24;
  const sim::RunResult r = sim::run_anonymous(
      g, core::universal_rv_program(options), 1, 3, 1, config);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.met);
}

TEST(Integration, UniversalOnScrambledRingNonsymmetric) {
  const Graph g = families::scrambled_ring(5, 23);
  const auto classes = views::compute_view_classes(g);
  // Find a nonsymmetric pair (the scrambling virtually guarantees one).
  Node u = graph::kNoNode;
  Node v = graph::kNoNode;
  for (Node a = 0; a < g.size() && u == graph::kNoNode; ++a) {
    for (Node b = 0; b < g.size(); ++b) {
      if (a != b && !classes.symmetric(a, b)) {
        u = a;
        v = b;
        break;
      }
    }
  }
  ASSERT_NE(u, graph::kNoNode);
  core::UniversalOptions options;
  options.max_phases = 200;
  sim::RunConfig config;
  config.max_rounds = 1u << 24;
  const sim::RunResult r = sim::run_anonymous(
      g, core::universal_rv_program(options), u, v, 0, config);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.met);
}

TEST(Integration, FeasibilitySweepOrientedRing3) {
  // ring(3): all pairs symmetric with Shrink = 1; Corollary 3.1 says
  // delay 0 infeasible, delays >= 1 feasible — verified by the
  // universal algorithm across the full STIC grid.
  const Graph g = families::oriented_ring(3);
  core::UniversalOptions options;
  options.max_phases = 120;
  sim::RunConfig config;
  config.max_rounds = 1u << 23;
  const analysis::SweepSummary summary = sweep::feasibility_sweep(
      g, 1, core::universal_rv_program(options), config);
  EXPECT_EQ(summary.inconsistent, 0u);
  EXPECT_EQ(summary.infeasible, 6u);  // six ordered pairs at delay 0
  EXPECT_EQ(summary.feasible, 6u);
}

TEST(Integration, SymmRVOnQhat2) {
  // Section 4 graph as a rendezvous arena: all nodes symmetric; pick
  // the root and a neighbor, delay = Shrink, known parameters.
  const auto q = families::qhat_explicit(2);
  const Node v = q.graph.step(q.root, 0).to;
  const std::uint32_t s = views::shrink(q.graph, q.root, v);
  ASSERT_GE(s, 1u);
  ASSERT_LE(s, 2u);
  const auto y_handle = cache::cached_uxs(q.graph.size());
  const uxs::Uxs& y = *y_handle;
  ASSERT_TRUE(uxs::is_uxs_for(q.graph, y));
  sim::RunConfig config;
  config.max_rounds = support::sat_mul(
      4, core::symm_rv_time_bound(q.graph.size(), s, s, y.length()));
  const sim::RunResult r = sim::run_anonymous(
      q.graph, core::symm_rv_program(q.graph.size(), s, s, y), q.root, v,
      s, config);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.met);
  EXPECT_LE(r.meet_from_later_start,
            core::symm_rv_time_bound(q.graph.size(), s, s, y.length()));
}

TEST(Integration, OptimalAgreesWithUniversalOnRing4) {
  // Three independent oracles on the same STICs: the characterization
  // predicate, the exhaustive optimal search, and the universal
  // algorithm.
  const Graph g = families::oriented_ring(4);
  const auto classes = views::compute_view_classes(g);
  core::UniversalOptions options;
  options.max_phases = 150;
  sim::RunConfig config;
  config.max_rounds = 1u << 24;
  for (const Node v : {Node{1}, Node{2}}) {
    for (std::uint64_t delay = 0; delay <= 2; ++delay) {
      const auto cls =
          analysis::classify_stic(g, classes, analysis::Stic{0, v, delay});
      const auto opt = analysis::optimal_oblivious(g, 0, v, delay);
      const auto run = sim::run_anonymous(
          g, core::universal_rv_program(options), 0, v, delay, config);
      ASSERT_TRUE(run.ok()) << run.error;
      EXPECT_EQ(cls.feasible,
                opt.outcome == analysis::OptimalOutcome::kMet);
      EXPECT_EQ(cls.feasible, run.met)
          << "v=" << v << " delay=" << delay;
    }
  }
}

}  // namespace
}  // namespace rdv
