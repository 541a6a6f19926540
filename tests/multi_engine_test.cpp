#include <gtest/gtest.h>

#include "cache/artifact_cache.hpp"
#include "core/explore.hpp"
#include "graph/families/families.hpp"
#include "graph/families/qhat_implicit.hpp"
#include "sim/engine.hpp"
#include "sim/multi_engine.hpp"
#include "support/saturating.hpp"
#include "uxs/uxs.hpp"

namespace rdv::sim {
namespace {

using graph::Graph;
using graph::Node;
namespace families = rdv::graph::families;

AgentProgram sleeper() {
  return [](Mailbox& mb, Observation) -> Proc {
    return [](Mailbox& mb2) -> Proc {
      co_await mb2.wait(support::kRoundInfinity);
    }(mb);
  };
}

AgentProgram forward_forever() {
  return [](Mailbox& mb, Observation) -> Proc {
    return [](Mailbox& mb2) -> Proc {
      for (;;) co_await mb2.move(0);
    }(mb);
  };
}

/// Execute a fixed script of actions, then halt.
AgentProgram scripted(std::vector<Action> script) {
  return [script = std::move(script)](Mailbox& mb, Observation) -> Proc {
    return [](Mailbox& mb2, std::vector<Action> actions) -> Proc {
      for (const Action& a : actions) {
        if (a.kind == Action::Kind::kMove) {
          co_await mb2.move(a.port);
        } else {
          co_await mb2.wait(a.wait_rounds);
        }
      }
    }(mb, script);
  };
}

/// Walk to a fixed port once, then halt there.
AgentProgram step_once(graph::Port p) {
  return [p](Mailbox& mb, Observation) -> Proc {
    return [](Mailbox& mb2, graph::Port port) -> Proc {
      co_await mb2.move(port);
      co_await mb2.wait(support::kRoundInfinity);
    }(mb, p);
  };
}

TEST(MultiEngine, ThreeAgentsGatherOnPath) {
  const Graph g = families::path_graph(3);
  std::vector<AgentSpec> specs;
  specs.push_back({step_once(0), 0, 0});   // 0 -> 1 (its only port)
  specs.push_back({sleeper(), 1, 0});      // stays at 1
  specs.push_back({step_once(0), 2, 2});   // spawns late, 2 -> 1
  const MultiRunResult r = run_multi(g, specs);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.gathered);
  EXPECT_EQ(r.gather_round_absolute, 3u);  // last agent moves at round 3
  EXPECT_EQ(r.gather_from_last_start, 1u);
  // Pairwise: agents 0 and 1 met at round 1 already.
  EXPECT_EQ(r.meeting_of(0, 1, 3), 1u);
  EXPECT_EQ(r.meeting_of(0, 2, 3), 3u);
}

TEST(MultiEngine, RotatingRingNeverGathers) {
  const Graph g = families::oriented_ring(6);
  std::vector<AgentSpec> specs;
  for (const Node start : {Node{0}, Node{2}, Node{4}}) {
    specs.push_back({forward_forever(), start, 0});
  }
  MultiRunConfig config;
  config.max_rounds = 2000;
  const MultiRunResult r = run_multi(g, specs, config);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_FALSE(r.gathered);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = i + 1; j < 3; ++j) {
      EXPECT_EQ(r.meeting_of(i, j, 3), kNever);
    }
  }
}

TEST(MultiEngine, WaitingForMommy) {
  // The paper's reduction (Section 1): with roles assigned, non-leaders
  // wait and the leader explores — the leader meets every waiter. The
  // leader walks Y one move at a time, then as one engine-run segment;
  // both must meet every waiter at the same rounds.
  const Graph g = families::random_connected(9, 4, 13);
  const auto y_handle = cache::cached_uxs(9);
  const uxs::Uxs& y = *y_handle;
  AgentProgram per_move = [&y](Mailbox& mb, Observation) -> Proc {
    return [](Mailbox& mb2, uxs::Uxs seq) -> Proc {
      // Walk the UXS application (covers all nodes), then halt.
      Observation o = co_await mb2.move(0);
      for (std::uint64_t a : seq.terms()) {
        o = co_await mb2.move(
            static_cast<graph::Port>((*o.entry_port + a) % o.degree));
      }
      co_await mb2.wait(support::kRoundInfinity);
    }(mb, y);
  };
  AgentProgram segment = [&y](Mailbox& mb, Observation) -> Proc {
    return [](Mailbox& mb2, uxs::Uxs seq) -> Proc {
      std::vector<graph::Port> entries(seq.length() + 1);
      co_await mb2.walk_uxs(seq.terms(), entries);
      co_await mb2.wait(support::kRoundInfinity);
    }(mb, y);
  };
  MultiRunConfig config;
  config.max_rounds = 8 * (y.length() + 2);
  config.record_trace = true;
  std::vector<MultiRunResult> results;
  for (const AgentProgram& leader : {per_move, segment}) {
    std::vector<AgentSpec> specs;
    specs.push_back({leader, 0, 0});
    specs.push_back({sleeper(), 3, 0});
    specs.push_back({sleeper(), 5, 0});
    specs.push_back({sleeper(), 8, 0});
    const MultiRunResult r = run_multi(g, specs, config);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_FALSE(r.gathered);  // waiters sit at distinct nodes forever
    for (std::size_t w = 1; w < specs.size(); ++w) {
      EXPECT_NE(r.meeting_of(0, w, specs.size()), kNever)
          << "leader never reached waiter " << w;
    }
    // Waiters at distinct nodes never meet each other.
    for (std::size_t i = 1; i < specs.size(); ++i) {
      for (std::size_t j = i + 1; j < specs.size(); ++j) {
        EXPECT_EQ(r.meeting_of(i, j, specs.size()), kNever);
      }
    }
    results.push_back(r);
  }
  EXPECT_EQ(results[0].first_meeting, results[1].first_meeting);
  EXPECT_EQ(results[0].moves, results[1].moves);
  EXPECT_EQ(results[0].final_pos, results[1].final_pos);
  EXPECT_EQ(results[0].rounds_simulated, results[1].rounds_simulated);
  EXPECT_EQ(results[0].trace.events().size(),
            results[1].trace.events().size());
}

TEST(MultiEngine, SingleAgentGathersTrivially) {
  const Graph g = families::path_graph(2);
  std::vector<AgentSpec> specs;
  specs.push_back({sleeper(), 0, 0});
  const MultiRunResult r = run_multi(g, specs);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.gathered);
  EXPECT_EQ(r.gather_round_absolute, 0u);
}

TEST(MultiEngine, StaggeredSpawnsTracked) {
  const Graph g = families::path_graph(4);
  std::vector<AgentSpec> specs;
  specs.push_back({sleeper(), 0, 0});
  specs.push_back({sleeper(), 3, 7});
  MultiRunConfig config;
  config.max_rounds = 100;
  const MultiRunResult r = run_multi(g, specs, config);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_FALSE(r.gathered);
  EXPECT_EQ(r.final_pos[0], 0u);
  EXPECT_EQ(r.final_pos[1], 3u);
  EXPECT_EQ(r.moves[0], 0u);
}

TEST(MultiEngine, FirstMeetingMatrixForFourAgents) {
  // oriented_ring(4), port 0 = clockwise (+1 each round):
  //   agent 0: rotates from node 0 (position r mod 4)
  //   agent 1: sleeps at node 2     -> met by agent 0 at round 2
  //   agent 2: sleeps at node 3     -> met by agent 0 at round 3
  //   agent 3: rotates from node 2  -> starts on agent 1 (round 0),
  //            reaches agent 2 at round 1, stays 2 apart from agent 0
  const Graph g = families::oriented_ring(4);
  std::vector<AgentSpec> specs;
  specs.push_back({forward_forever(), 0, 0});
  specs.push_back({sleeper(), 2, 0});
  specs.push_back({sleeper(), 3, 0});
  specs.push_back({forward_forever(), 2, 0});
  MultiRunConfig config;
  config.max_rounds = 40;
  const MultiRunResult r = run_multi(g, specs, config);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_FALSE(r.gathered);
  const std::size_t k = specs.size();
  EXPECT_EQ(r.meeting_of(0, 1, k), 2u);
  EXPECT_EQ(r.meeting_of(0, 2, k), 3u);
  EXPECT_EQ(r.meeting_of(0, 3, k), kNever);  // constant ring offset of 2
  EXPECT_EQ(r.meeting_of(1, 2, k), kNever);  // distinct parked nodes
  EXPECT_EQ(r.meeting_of(1, 3, k), 0u);      // shared start node
  EXPECT_EQ(r.meeting_of(2, 3, k), 1u);
  // meeting_of must be symmetric in its agent arguments.
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i + 1; j < k; ++j) {
      EXPECT_EQ(r.meeting_of(i, j, k), r.meeting_of(j, i, k));
    }
  }
}

TEST(MultiEngine, ErrorsPropagateWithAgentIndex) {
  const Graph g = families::path_graph(3);
  std::vector<AgentSpec> specs;
  specs.push_back({sleeper(), 0, 0});
  specs.push_back({sleeper(), 1, 0});
  specs.push_back({[](Mailbox& mb, Observation) -> Proc {
                     return [](Mailbox& mb2) -> Proc {
                       co_await mb2.move(9);  // invalid port
                     }(mb);
                   },
                   2, 0});
  const MultiRunResult r = run_multi(g, specs);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("agent 2"), std::string::npos);
}

// Regression: trace events stored the agent index in a byte, so a
// traced run with more than 256 agents mislabeled agent 256 + i as i.
TEST(MultiEngine, TraceLabelsAgentsPast255) {
  const Graph g = families::path_graph(2);
  const std::size_t k = 300;
  std::vector<AgentSpec> specs;
  for (std::size_t i = 0; i + 1 < k; ++i) specs.push_back({sleeper(), 0, 0});
  specs.push_back({step_once(0), 1, 0});  // the last agent walks 1 -> 0
  MultiRunConfig config;
  config.record_trace = true;
  config.trace_limit = 2 * k;
  const MultiRunResult r = run_multi(g, specs, config);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.gathered);
  EXPECT_EQ(r.gather_round_absolute, 1u);
  const std::vector<TraceEvent>& events = r.trace.events();
  ASSERT_EQ(events.size(), k + 1);  // k spawns, then the one move
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(events[i].agent, i);
    EXPECT_EQ(events[i].via_port, kNoPort);
  }
  EXPECT_EQ(events[k].agent, k - 1);
  EXPECT_EQ(events[k].node, 0u);
  EXPECT_NE(r.trace.to_string().find("round 1: agent 299 moves via port 0 "
                                     "to node 0\n"),
            std::string::npos);
}

// Q-hat interns a node when a step first reaches it, handing out ids in
// that order. The steps several agents choose in one round must intern
// in the round's agent order (present agents by index, then those
// appearing by index), and a run that ends in that round takes only the
// steps chosen before its ending: every step on a meeting, the steps of
// the agents before the failing one on an error. Every node's id is
// pinned by its direction string (ports: N = 0, E = 1, S = 2, W = 3).
std::vector<std::string> interned(
    const families::QhatImplicitTopology& topo) {
  std::vector<std::string> paths;
  for (Node v = 0; v < topo.materialized(); ++v) {
    std::string path;
    for (const families::Dir d : topo.path_of(v)) {
      path += families::dir_letter(d);
    }
    paths.push_back(path);
  }
  return paths;
}

TEST(MultiEngine, QhatInternsARoundsStepsInAgentOrderWhenTheRunGoesOn) {
  // Round 1: agent 0 (present, at N) steps E, agent 1 (appearing at
  // the root) steps W; round 2: both step N.
  const families::QhatImplicitTopology pair_topo(3);
  const RunResult pair = run_pair(
      pair_topo,
      scripted({Action::move(0), Action::move(1), Action::move(0)}),
      scripted({Action::move(3), Action::move(0)}), 0, 0, 1);
  ASSERT_TRUE(pair.ok()) << pair.error;
  EXPECT_FALSE(pair.met);
  EXPECT_TRUE(pair.programs_finished);
  EXPECT_EQ(pair.rounds_simulated, 3u);
  EXPECT_EQ(interned(pair_topo),
            (std::vector<std::string>{"", "N", "NE", "W", "NEN", "WN"}));
  // Round 1: agent 0 (present, at N) steps E, agents 1 and 2 (appearing
  // at the root) step W and S.
  const families::QhatImplicitTopology topo(3);
  std::vector<AgentSpec> specs;
  specs.push_back({scripted({Action::move(0), Action::move(1)}), 0, 0});
  specs.push_back({scripted({Action::move(3)}), 0, 1});
  specs.push_back({scripted({Action::move(2)}), 0, 1});
  const MultiRunResult r = run_multi(topo, specs);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_FALSE(r.gathered);
  EXPECT_TRUE(r.programs_finished);
  EXPECT_EQ(r.rounds_simulated, 2u);
  EXPECT_EQ(r.meeting_of(1, 2, 3), 1u);
  EXPECT_EQ(interned(topo),
            (std::vector<std::string>{"", "N", "NE", "W", "S"}));
}

TEST(MultiEngine, QhatInternsEveryStepOfTheRoundTheAgentsMeet) {
  // The agents gather at the root in round 1, where each steps away.
  const families::QhatImplicitTopology pair_topo(3);
  const RunResult pair = run_pair(
      pair_topo, scripted({Action::wait(1), Action::move(0)}),
      scripted({Action::move(1)}), 0, 0, 1);
  ASSERT_TRUE(pair.ok()) << pair.error;
  EXPECT_TRUE(pair.met);
  EXPECT_EQ(pair.meet_round_absolute, 1u);
  EXPECT_EQ(pair.rounds_simulated, 1u);
  EXPECT_EQ(interned(pair_topo), (std::vector<std::string>{"", "N", "E"}));
  const families::QhatImplicitTopology topo(3);
  std::vector<AgentSpec> specs;
  specs.push_back({scripted({Action::wait(1), Action::move(0)}), 0, 0});
  specs.push_back({scripted({Action::wait(1), Action::move(1)}), 0, 0});
  specs.push_back({scripted({Action::move(2)}), 0, 1});
  const MultiRunResult r = run_multi(topo, specs);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.gathered);
  EXPECT_EQ(r.gather_round_absolute, 1u);
  EXPECT_EQ(r.rounds_simulated, 1u);
  EXPECT_EQ(interned(topo), (std::vector<std::string>{"", "N", "E", "S"}));
}

TEST(MultiEngine, QhatInternsOnlyTheStepsBeforeAPortError) {
  // Round 2: agent 0 (at N) uses port 9, agent 1 (at the root) steps E,
  // which is never taken.
  const families::QhatImplicitTopology pair_topo(3);
  const RunResult pair = run_pair(
      pair_topo, scripted({Action::move(0), Action::wait(1), Action::move(9)}),
      scripted({Action::wait(1), Action::move(1)}), 0, 0, 1);
  EXPECT_EQ(pair.error, "agent 0 used port 9 at a degree-4 node");
  EXPECT_EQ(pair.rounds_simulated, 2u);
  EXPECT_EQ(interned(pair_topo), (std::vector<std::string>{"", "N"}));
  // Round 3: agent 0 (at N) steps N, agent 1 uses port 7 and agent 2
  // steps E: only agent 0's step is taken.
  const families::QhatImplicitTopology topo(3);
  std::vector<AgentSpec> specs;
  specs.push_back(
      {scripted({Action::move(0), Action::wait(2), Action::move(0)}), 0, 0});
  specs.push_back({scripted({Action::wait(2), Action::move(7)}), 0, 1});
  specs.push_back({scripted({Action::wait(1), Action::move(1)}), 0, 2});
  const MultiRunResult r = run_multi(topo, specs);
  EXPECT_EQ(r.error, "agent 1 used port 7 at a degree-4 node");
  EXPECT_EQ(r.rounds_simulated, 3u);
  EXPECT_EQ(interned(topo), (std::vector<std::string>{"", "N", "NN"}));
}

}  // namespace
}  // namespace rdv::sim
