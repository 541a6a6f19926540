// Golden pin of the simulation engine: every field of a run that the
// paper's measures read (meeting, its time, per-agent moves, rounds,
// crossings, final positions) is folded into one FNV-1a digest per
// workload. The constants were computed with the engine before it was
// specialized on topology and agent count; any change to scheduling,
// meeting detection or move accounting moves a digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/steiner.hpp"
#include "analysis/stics.hpp"
#include "cache/artifact_cache.hpp"
#include "core/asymm_rv.hpp"
#include "core/bounds.hpp"
#include "core/symm_rv.hpp"
#include "core/universal_rv.hpp"
#include "graph/families/families.hpp"
#include "graph/families/qhat.hpp"
#include "graph/families/qhat_implicit.hpp"
#include "sim/engine.hpp"
#include "sim/multi_engine.hpp"
#include "support/saturating.hpp"

namespace rdv::sim {
namespace {

using graph::Graph;
namespace families = rdv::graph::families;

class Digest {
 public:
  void add(std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (x >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(const RunResult& r) {
    add(r.met ? 1 : 0);
    add(r.met ? r.meet_from_later_start : 0);
    add(r.moves[0]);
    add(r.moves[1]);
    add(r.rounds_simulated);
    add(r.edge_crossings);
    add(r.final_pos[0]);
    add(r.final_pos[1]);
  }
  void add(const MultiRunResult& r) {
    add(r.gathered ? 1 : 0);
    add(r.gather_round_absolute);
    for (const std::uint64_t m : r.first_meeting) add(m);
    for (const std::uint64_t m : r.moves) add(m);
    add(r.rounds_simulated);
    add(r.edge_crossings);
    for (const graph::Node v : r.final_pos) add(v);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::vector<Graph> t2_graphs() {
  std::vector<Graph> graphs;
  graphs.push_back(families::two_node_graph());
  graphs.push_back(families::oriented_ring(3));
  graphs.push_back(families::path_graph(3));
  graphs.push_back(families::oriented_ring(4));
  graphs.push_back(families::symmetric_double_tree(1, 1));
  return graphs;
}

TEST(SimGolden, UniversalRvOnT2Graphs) {
  core::UniversalOptions options;
  options.max_phases = 60;
  const AgentProgram program = core::universal_rv_program(options);
  RunConfig config;
  config.max_rounds = 1u << 20;
  Digest digest;
  std::uint64_t runs = 0;
  std::uint64_t met = 0;
  for (const Graph& g : t2_graphs()) {
    for (const analysis::Stic& s : analysis::enumerate_stics(g, 2)) {
      const RunResult r = run_anonymous(g, program, s.u, s.v, s.delay, config);
      ASSERT_TRUE(r.ok()) << g.name() << ": " << r.error;
      digest.add(r);
      ++runs;
      if (r.met) ++met;
    }
  }
  EXPECT_EQ(runs, 114u);
  EXPECT_EQ(met, 86u);
  EXPECT_EQ(digest.value(), 0x3a639e968f27324dull)
      << std::hex << digest.value();
}

TEST(SimGolden, SymmAndAsymmRvOnRing4) {
  const Graph g = families::oriented_ring(4);
  const auto y = cache::cached_uxs(g.size());
  Digest digest;
  for (const analysis::Stic& s : analysis::enumerate_stics(g, 2)) {
    RunConfig symm_config;
    symm_config.max_rounds = support::sat_mul(
        4, core::symm_rv_time_bound(g.size(), 1, 2, y->length()));
    const RunResult symm = run_anonymous(
        g, core::symm_rv_program(g.size(), 1, 2, *y), s.u, s.v, s.delay,
        symm_config);
    ASSERT_TRUE(symm.ok()) << symm.error;
    digest.add(symm);

    const std::uint64_t budget =
        core::asymm_rv_time_bound(g.size(), s.delay, y->length());
    RunConfig asymm_config;
    asymm_config.max_rounds =
        support::sat_add(support::sat_mul(2, budget), s.delay);
    const RunResult asymm =
        run_anonymous(g, core::asymm_rv_program(g.size(), *y, budget), s.u,
                      s.v, s.delay, asymm_config);
    ASSERT_TRUE(asymm.ok()) << asymm.error;
    digest.add(asymm);
  }
  EXPECT_EQ(digest.value(), 0x1aa46595aeda53adull)
      << std::hex << digest.value();
}

TEST(SimGolden, DedicatedZRunsOnImplicitQhat) {
  Digest digest;
  for (std::uint32_t k = 1; k <= 3; ++k) {
    const families::QhatImplicitTopology topo(4 * k);
    const AgentProgram program = analysis::dedicated_z_program(k);
    RunConfig config;
    config.max_rounds = 64ull * k * (std::uint64_t{2} << k);
    for (const graph::Node v : families::qhat_z_set(topo, topo.root(), k)) {
      const RunResult r =
          run_anonymous(topo, program, topo.root(), v, 2 * k, config);
      ASSERT_TRUE(r.ok()) << r.error;
      digest.add(r);
    }
  }
  EXPECT_EQ(digest.value(), 0x418385f4961fbfe5ull)
      << std::hex << digest.value();
}

TEST(SimGolden, DedicatedZRunsOnImplicitQhatK4ToK6) {
  // Final positions are node ids of the lazily interned topology, and
  // the node count is folded in per k, so this also pins the order in
  // which Q-hat nodes are materialized (constant taken before the
  // topology memoized its edges).
  Digest digest;
  for (std::uint32_t k = 4; k <= 6; ++k) {
    const families::QhatImplicitTopology topo(4 * k);
    const AgentProgram program = analysis::dedicated_z_program(k);
    RunConfig config;
    config.max_rounds = 64ull * k * (std::uint64_t{2} << k);
    for (const graph::Node v : families::qhat_z_set(topo, topo.root(), k)) {
      const RunResult r =
          run_anonymous(topo, program, topo.root(), v, 2 * k, config);
      ASSERT_TRUE(r.ok()) << r.error;
      digest.add(r);
    }
    digest.add(topo.materialized());
  }
  EXPECT_EQ(digest.value(), 0x0a0f45f8466fa1b6ull)
      << std::hex << digest.value();
}

TEST(SimGolden, UniversalRvGatheringOnRing4) {
  // k >= 3 runs take the engine's variable-width path.
  const Graph g = families::oriented_ring(4);
  core::UniversalOptions options;
  options.max_phases = 30;
  const AgentProgram program = core::universal_rv_program(options);
  MultiRunConfig config;
  config.max_rounds = 1u << 18;
  Digest digest;
  for (std::uint64_t delay = 0; delay <= 2; ++delay) {
    std::vector<AgentSpec> three{{program, 0, 0},
                                 {program, 1, delay},
                                 {program, 2, 2 * delay}};
    digest.add(run_multi(g, three, config));
    std::vector<AgentSpec> four{{program, 0, 0},
                                {program, 1, delay},
                                {program, 2, 0},
                                {program, 3, delay + 1}};
    digest.add(run_multi(g, four, config));
  }
  EXPECT_EQ(digest.value(), 0xb92c94cf6f3ea0e9ull)
      << std::hex << digest.value();
}

}  // namespace
}  // namespace rdv::sim
