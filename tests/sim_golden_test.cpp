// Golden pin of the simulation engine: every field of a run that the
// paper's measures read (meeting, its time, per-agent moves, rounds,
// crossings, final positions) is folded into one FNV-1a digest per
// workload. The constants were computed with the engine before it was
// specialized on topology and agent count; any change to scheduling,
// meeting detection or move accounting moves a digest. The trace and
// sleeper pins at the end were computed with the engine that resumed a
// coroutine once per move, before walk segments existed.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "analysis/steiner.hpp"
#include "analysis/stics.hpp"
#include "cache/artifact_cache.hpp"
#include "core/asymm_rv.hpp"
#include "core/bounds.hpp"
#include "core/explore.hpp"
#include "core/symm_rv.hpp"
#include "core/universal_rv.hpp"
#include "graph/families/families.hpp"
#include "graph/families/qhat.hpp"
#include "graph/families/qhat_implicit.hpp"
#include "sim/engine.hpp"
#include "sim/multi_engine.hpp"
#include "support/saturating.hpp"
#include "uxs/uxs.hpp"

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
  void add(const Trace& t) {
    add(t.events().size());
    for (const TraceEvent& e : t.events()) {
      add(e.round);
      add(e.agent);
      add(e.node);
      add(e.via_port);
    }
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

TEST(SimGolden, TracesOfT2SticsAndZRuns) {
  // Every trace event (round, agent, node, port) of the T2 STICs under
  // UniversalRV and of the T6 Z runs, untruncated.
  RunConfig config;
  config.record_trace = true;
  config.trace_limit = std::numeric_limits<std::size_t>::max();
  Digest digest;
  std::uint64_t events = 0;
  auto fold = [&](const RunResult& r) {
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_FALSE(r.trace.truncated());
    digest.add(r);
    digest.add(r.trace);
    events += r.trace.events().size();
  };

  core::UniversalOptions options;
  options.max_phases = 60;
  const AgentProgram universal = core::universal_rv_program(options);
  config.max_rounds = 1u << 20;
  for (const Graph& g : t2_graphs()) {
    for (const analysis::Stic& s : analysis::enumerate_stics(g, 2)) {
      fold(run_anonymous(g, universal, s.u, s.v, s.delay, config));
    }
  }
  for (std::uint32_t k = 1; k <= 6; ++k) {
    const families::QhatImplicitTopology topo(4 * k);
    const AgentProgram z = analysis::dedicated_z_program(k);
    config.max_rounds = 64ull * k * (std::uint64_t{2} << k);
    for (const graph::Node v : families::qhat_z_set(topo, topo.root(), k)) {
      fold(run_anonymous(topo, z, topo.root(), v, 2 * k, config));
    }
  }
  EXPECT_EQ(events, 1585876u);
  EXPECT_EQ(digest.value(), 0xa82eeb0a5e6a09d5ull)
      << std::hex << digest.value();
}

// Meetings on the last move of a walk. The walker appears first at
// `start`; a sleeper appears at every node at every round the walker's
// program lasts, so the first meeting lands on every round the walker
// occupies a node — in particular on the last move of each Explore
// path, of each application of Y and of each walk home.

AgentProgram sleeper() {
  return [](Mailbox& mb, Observation) -> Proc {
    return [](Mailbox& mb2) -> Proc {
      co_await mb2.wait(support::kRoundInfinity);
    }(mb);
  };
}

struct SleeperSweep {
  std::uint64_t runs = 0;
  std::uint64_t met = 0;
  Digest digest;
};

void sweep_sleepers(const Graph& g, const AgentProgram& walker,
                    graph::Node start, std::uint64_t max_delay,
                    SleeperSweep* out) {
  RunConfig config;
  config.max_rounds = 4 * max_delay + 64;
  for (graph::Node v = 0; v < g.size(); ++v) {
    for (std::uint64_t delay = 0; delay <= max_delay; ++delay) {
      const RunResult r = run_pair(g, walker, sleeper(), start, v, delay,
                                   config);
      ASSERT_TRUE(r.ok()) << r.error;
      out->digest.add(r);
      ++out->runs;
      if (r.met) ++out->met;
    }
  }
}

/// Y = (1, 1): on an oriented ring (port 0 clockwise, entered by port
/// 1) its application from u is u, u+1, u+2, u+3 — the last node is
/// new on the last move.
uxs::Uxs clockwise_y() { return uxs::Uxs({1, 1}, "clockwise"); }

TEST(SimGolden, ExploreMeetsSleeperOnLastMoveOfPath) {
  const Graph g = families::balanced_tree(2, 2);
  const AgentProgram walker = [](Mailbox& mb, Observation) -> Proc {
    return core::explore_full(mb, 2, 2);
  };
  // With the sleeper already present every node within distance 2 is
  // met; the leaves only on the last move of a length-2 path.
  for (graph::Node v = 1; v < g.size(); ++v) {
    const RunResult r = run_pair(g, walker, sleeper(), 0, v, 0);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.met) << "node " << v;
  }
  SleeperSweep sweep;
  sweep_sleepers(g, walker, 0, 30, &sweep);
  EXPECT_EQ(sweep.runs, 217u);
  EXPECT_EQ(sweep.met, 127u);
  EXPECT_EQ(sweep.digest.value(), 0x6ae67755d4bca688ull)
      << std::hex << sweep.digest.value();
}

TEST(SimGolden, AsymmRvMeetsSleeperOnLastNodeOfY) {
  const Graph g = families::oriented_ring(6);
  // The signature walk applies Y from node 0 and reaches node 3 on its
  // last move, at round 3.
  const RunResult first =
      run_pair(g, core::asymm_rv_program(6, clockwise_y(), 200), sleeper(),
               0, 3, 0);
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_TRUE(first.met);
  EXPECT_EQ(first.meet_round_absolute, 3u);
  SleeperSweep sweep;
  sweep_sleepers(g, core::asymm_rv_program(6, clockwise_y(), 200), 0, 60,
                 &sweep);
  // With a fixed label the walk skips the signature and repeats
  // explore-and-return.
  sweep_sleepers(g,
                 core::asymm_rv_program(6, clockwise_y(), 200,
                                        std::vector<bool>{true, false}),
                 0, 60, &sweep);
  EXPECT_EQ(sweep.runs, 732u);
  EXPECT_EQ(sweep.met, 488u);
  EXPECT_EQ(sweep.digest.value(), 0x9a8e4e304f3c3be5ull)
      << std::hex << sweep.digest.value();
}

TEST(SimGolden, SymmRvMeetsSleeperDuringGoHome) {
  const Graph g = families::oriented_ring(6);
  // d = 0, delta = 2: wait 2, step, wait 2, step, wait 2, step, wait 2
  // (node 3 at round 11), then home 3 -> 2 -> 1 -> 0 at rounds 12-14.
  const AgentProgram plain = core::symm_rv_program(6, 0, 2, clockwise_y());
  const RunResult at_home = run_pair(g, plain, sleeper(), 0, 0, 5);
  ASSERT_TRUE(at_home.ok()) << at_home.error;
  EXPECT_TRUE(at_home.met);
  EXPECT_EQ(at_home.meet_round_absolute, 14u);
  const RunResult midway = run_pair(g, plain, sleeper(), 0, 1, 6);
  ASSERT_TRUE(midway.ok()) << midway.error;
  EXPECT_TRUE(midway.met);
  EXPECT_EQ(midway.meet_round_absolute, 13u);

  SleeperSweep sweep;
  sweep_sleepers(g, plain, 0, 20, &sweep);
  sweep_sleepers(g, core::symm_rv_program(6, 1, 2, clockwise_y()), 0, 60,
                 &sweep);
  // Budgets that cut the procedure mid-way send the agent home early.
  for (const std::uint64_t end_clock : {9u, 17u, 26u, 33u}) {
    const AgentProgram cut = [end_clock](Mailbox& mb, Observation) -> Proc {
      return [](Mailbox& mb2, std::uint64_t end) -> Proc {
        const uxs::Uxs y = clockwise_y();
        bool completed = false;
        co_await core::symm_rv(mb2, 6, 1, 2, y, end, &completed);
      }(mb, end_clock);
    };
    sweep_sleepers(g, cut, 0, 40, &sweep);
  }
  EXPECT_EQ(sweep.runs, 1476u);
  EXPECT_EQ(sweep.met, 638u);
  EXPECT_EQ(sweep.digest.value(), 0x567542a47194d115ull)
      << std::hex << sweep.digest.value();
}

}  // namespace
}  // namespace rdv::sim
