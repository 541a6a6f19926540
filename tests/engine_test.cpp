#include <gtest/gtest.h>

#include "graph/families/families.hpp"
#include "sim/engine.hpp"
#include "support/saturating.hpp"

namespace rdv::sim {
namespace {

using graph::Graph;
using graph::Node;
using graph::Port;
namespace families = rdv::graph::families;

/// Program: move through port 0 forever.
Proc forward_body(Mailbox& mb) {
  for (;;) co_await mb.move(0);
}
AgentProgram forward_program() {
  return [](Mailbox& mb, Observation) -> Proc { return forward_body(mb); };
}

/// Program: wait forever (in one huge chunk).
AgentProgram sleeper_program() {
  return [](Mailbox& mb, Observation) -> Proc {
    return [](Mailbox& mb2) -> Proc {
      co_await mb2.wait(support::kRoundInfinity);
    }(mb);
  };
}

/// Program: execute a fixed script of actions, then halt.
AgentProgram scripted(std::vector<Action> script) {
  return [script = std::move(script)](Mailbox& mb, Observation) -> Proc {
    return [](Mailbox& mb2, std::vector<Action> s) -> Proc {
      for (const Action& a : s) {
        if (a.kind == Action::Kind::kMove) {
          co_await mb2.move(a.port);
        } else {
          co_await mb2.wait(a.wait_rounds);
        }
      }
    }(mb, script);
  };
}

TEST(Engine, TwoNodeDelayExample) {
  // The paper's introduction: two-node graph, delay 3, algorithm "move
  // at each round" meets 3 rounds after the earlier agent's start.
  const Graph g = families::two_node_graph();
  const RunResult r = run_anonymous(g, forward_program(), 0, 1, 3);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.met);
  EXPECT_EQ(r.meet_round_absolute, 3u);
  EXPECT_EQ(r.meet_from_later_start, 0u);
}

TEST(Engine, TwoNodeSimultaneousNeverMeets) {
  // Symmetric positions, delta = 0: agents swap forever, crossing in
  // the edge without noticing (Section 1).
  const Graph g = families::two_node_graph();
  RunConfig config;
  config.max_rounds = 500;
  const RunResult r = run_anonymous(g, forward_program(), 0, 1, 0, config);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_FALSE(r.met);
  EXPECT_GE(r.edge_crossings, 250u);
}

TEST(Engine, MeetAtLaterSpawn) {
  // Earlier agent walks onto the later agent's start node and sits
  // there; they meet the moment the later agent appears.
  const Graph g = families::path_graph(3);
  // From node 0: move port 0 -> node 1; wait forever.
  auto prog = scripted({Action::move(0), Action::wait(1'000'000)});
  const RunResult r = run_pair(g, prog, sleeper_program(), 0, 1, 5);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.met);
  EXPECT_EQ(r.meet_round_absolute, 5u);
  EXPECT_EQ(r.meet_from_later_start, 0u);
}

TEST(Engine, WaitFastForwardIsCheap) {
  // Two sleepers a node apart: the engine must jump over the huge wait
  // in O(1) events and stop at the cap without meeting.
  const Graph g = families::path_graph(4);
  RunConfig config;
  config.max_rounds = std::uint64_t{1} << 62;
  const RunResult r =
      run_anonymous(g, sleeper_program(), 0, 3, 7, config);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_FALSE(r.met);
}

TEST(Engine, LocalClocksAreObserved) {
  const Graph g = families::path_graph(3);
  std::vector<std::uint64_t> clocks;
  AgentProgram prog = [&clocks](Mailbox& mb, Observation start) -> Proc {
    clocks.push_back(start.clock);
    return [](Mailbox& mb2, std::vector<std::uint64_t>* out) -> Proc {
      Observation o = co_await mb2.wait(4);
      out->push_back(o.clock);
      o = co_await mb2.move(0);
      out->push_back(o.clock);
    }(mb, &clocks);
  };
  const RunResult r = run_pair(g, prog, sleeper_program(), 2, 0, 9);
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_GE(clocks.size(), 3u);
  EXPECT_EQ(clocks[0], 0u);  // at spawn
  EXPECT_EQ(clocks[1], 4u);  // after wait(4)
  EXPECT_EQ(clocks[2], 5u);  // after one move
}

TEST(Engine, EntryPortsReported) {
  const Graph g = families::oriented_ring(5);
  std::vector<Port> entries;
  AgentProgram prog = [&entries](Mailbox& mb, Observation) -> Proc {
    return [](Mailbox& mb2, std::vector<Port>* out) -> Proc {
      for (int i = 0; i < 3; ++i) {
        const Observation o = co_await mb2.move(0);
        out->push_back(*o.entry_port);
      }
    }(mb, &entries);
  };
  const RunResult r = run_pair(g, prog, sleeper_program(), 0, 3, 0);
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_EQ(entries.size(), 3u);
  for (const Port p : entries) EXPECT_EQ(p, 1u);  // clockwise entry
}

TEST(Engine, WaitAfterMoveReportsNoEntryPort) {
  const Graph g = families::oriented_ring(5);
  std::vector<std::optional<Port>> entries;
  AgentProgram prog = [&entries](Mailbox& mb, Observation) -> Proc {
    return [](Mailbox& mb2, std::vector<std::optional<Port>>* out) -> Proc {
      out->push_back((co_await mb2.move(0)).entry_port);
      out->push_back((co_await mb2.wait(2)).entry_port);
      out->push_back((co_await mb2.move(0)).entry_port);
      out->push_back((co_await mb2.wait(0)).entry_port);
    }(mb, &entries);
  };
  const RunResult r = run_pair(g, prog, sleeper_program(), 0, 3, 0);
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0], std::optional<Port>(1));
  EXPECT_EQ(entries[1], std::nullopt);
  EXPECT_EQ(entries[2], std::optional<Port>(1));
  EXPECT_EQ(entries[3], std::nullopt);
}

TEST(Engine, OutOfRangePortIsAnError) {
  const Graph g = families::path_graph(3);
  auto prog = scripted({Action::move(7)});
  const RunResult r = run_anonymous(g, prog, 0, 2, 0);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("port"), std::string::npos);
}

TEST(Engine, ZeroWaitSpinAborts) {
  const Graph g = families::path_graph(3);
  AgentProgram prog = [](Mailbox& mb, Observation) -> Proc {
    return [](Mailbox& mb2) -> Proc {
      for (;;) co_await mb2.wait(0);
    }(mb);
  };
  RunConfig config;
  config.max_zero_wait_spin = 100;
  const RunResult r = run_anonymous(g, prog, 0, 2, 0, config);
  EXPECT_FALSE(r.ok());
}

TEST(Engine, ThrowingProgramIsReported) {
  const Graph g = families::path_graph(3);
  AgentProgram prog = [](Mailbox& mb, Observation) -> Proc {
    return [](Mailbox&) -> Proc {
      throw std::runtime_error("boom");
      co_return;  // unreachable; makes this a coroutine
    }(mb);
  };
  const RunResult r = run_anonymous(g, prog, 0, 2, 0);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("boom"), std::string::npos);
}

TEST(Engine, ProgramsFinishedReported) {
  const Graph g = families::path_graph(4);
  auto prog = scripted({Action::move(0)});
  const RunResult r = run_anonymous(g, prog, 0, 3, 1);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_FALSE(r.met);
  EXPECT_TRUE(r.programs_finished);
}

TEST(Engine, TraceRecordsMoves) {
  const Graph g = families::path_graph(4);
  RunConfig config;
  config.record_trace = true;
  auto prog = scripted({Action::move(0), Action::wait(2)});
  const RunResult r = run_anonymous(g, prog, 0, 3, 1, config);
  ASSERT_TRUE(r.ok());
  // 2 spawns + 2 moves.
  EXPECT_EQ(r.trace.events().size(), 4u);
  const std::string rendered = r.trace.to_string();
  EXPECT_NE(rendered.find("appears"), std::string::npos);
  EXPECT_NE(rendered.find("moves via port"), std::string::npos);
}

TEST(Engine, CrossingCountedOnlyOnSwaps) {
  // Oriented ring, both move clockwise from adjacent nodes with delay
  // 0: they chase each other, never crossing, never meeting.
  const Graph g = families::oriented_ring(4);
  RunConfig config;
  config.max_rounds = 100;
  const RunResult r = run_anonymous(g, forward_program(), 0, 1, 0, config);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.met);
  EXPECT_EQ(r.edge_crossings, 0u);
}

TEST(Engine, MovesCounted) {
  const Graph g = families::oriented_ring(6);
  RunConfig config;
  config.max_rounds = 10;
  const RunResult r = run_anonymous(g, forward_program(), 0, 3, 0, config);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.moves[0], 10u);
  EXPECT_EQ(r.moves[1], 10u);
}

}  // namespace
}  // namespace rdv::sim
