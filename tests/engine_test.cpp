#include <gtest/gtest.h>

#include <span>

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
  const RunResult r = run_anonymous(g, prog, 0, 2, 0);
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

// --- Walk segments: the same walks as moves, run by the engine ---------

/// Walks Y from here, back home, then `ports` and back home, twice,
/// waiting between walks; records every entry port, degree and final
/// observation it sees into *seen. With `segments` the walks are
/// segments, otherwise one move per step — the two must be
/// indistinguishable to the engine's results.
AgentProgram walks(bool segments, std::vector<std::uint64_t> terms,
                   std::vector<Port> ports, std::vector<std::uint64_t>* seen) {
  return [=](Mailbox& mb, Observation) -> Proc {
    return [](Mailbox& mb2, bool seg, std::vector<std::uint64_t> y,
              std::vector<Port> path,
              std::vector<std::uint64_t>* out) -> Proc {
      std::vector<Port> entries(std::max(y.size() + 1, path.size()));
      std::vector<Port> degrees(entries.size());
      auto note = [out](const Observation& o) {
        out->push_back(o.clock);
        out->push_back(o.degree);
        out->push_back(o.entry_port.value_or(kNoPort));
      };
      for (int rep = 0; rep < 2; ++rep) {
        const std::span<Port> y_entries(entries.data(), y.size() + 1);
        if (seg) {
          note(co_await mb2.walk_uxs(y, y_entries, degrees));
          note(co_await mb2.retrace(y_entries));
        } else {
          degrees[0] = mb2.last().degree;
          Observation o = co_await mb2.move(0);
          entries[0] = *o.entry_port;
          for (std::size_t i = 0; i < y.size(); ++i) {
            degrees[i + 1] = o.degree;
            o = co_await mb2.move(
                static_cast<Port>((*o.entry_port + y[i]) % o.degree));
            entries[i + 1] = *o.entry_port;
          }
          note(o);
          for (std::size_t i = y.size() + 1; i-- > 0;) {
            o = co_await mb2.move(entries[i]);
          }
          note(o);
        }
        out->insert(out->end(), entries.begin(), entries.end());
        out->insert(out->end(), degrees.begin(), degrees.end());
        note(co_await mb2.wait(3));

        const std::span<Port> p_entries(entries.data(), path.size());
        if (seg) {
          note(co_await mb2.walk_ports(path, p_entries, degrees));
          note(co_await mb2.retrace(p_entries));
        } else {
          Observation o = mb2.last();
          for (std::size_t i = 0; i < path.size(); ++i) {
            degrees[i] = mb2.last().degree;
            o = co_await mb2.move(path[i]);
            entries[i] = *o.entry_port;
          }
          note(o);
          for (std::size_t i = path.size(); i-- > 0;) {
            o = co_await mb2.move(entries[i]);
          }
          note(o);
        }
        out->insert(out->end(), entries.begin(), entries.end());
        out->insert(out->end(), degrees.begin(), degrees.end());
        note(co_await mb2.wait(1 + rep));
      }
    }(mb, segments, terms, ports, seen);
  };
}

void expect_same_run(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.met, b.met);
  EXPECT_EQ(a.meet_round_absolute, b.meet_round_absolute);
  EXPECT_EQ(a.rounds_simulated, b.rounds_simulated);
  EXPECT_EQ(a.edge_crossings, b.edge_crossings);
  EXPECT_EQ(a.moves, b.moves);
  EXPECT_EQ(a.final_pos, b.final_pos);
  EXPECT_EQ(a.programs_finished, b.programs_finished);
  EXPECT_EQ(a.error, b.error);
  ASSERT_EQ(a.trace.events().size(), b.trace.events().size());
  for (std::size_t i = 0; i < a.trace.events().size(); ++i) {
    EXPECT_EQ(a.trace.events()[i].round, b.trace.events()[i].round);
    EXPECT_EQ(a.trace.events()[i].agent, b.trace.events()[i].agent);
    EXPECT_EQ(a.trace.events()[i].node, b.trace.events()[i].node);
    EXPECT_EQ(a.trace.events()[i].via_port, b.trace.events()[i].via_port);
  }
}

TEST(EngineSegments, SegmentsMatchPerMoveWalks) {
  // Both agents walk; every STIC of a small ring with delays 0..6 and
  // caps that cut walks mid-segment.
  const Graph g = families::oriented_ring(5);
  const std::vector<std::uint64_t> terms{3, 8, 1, 1, 6, 2, 9};
  const std::vector<Port> ports{0, 1, 1, 0, 0, 0, 1, 0};
  std::uint64_t met = 0;
  for (const std::uint64_t cap : {std::uint64_t{7}, std::uint64_t{23},
                                  std::uint64_t{1000}}) {
    RunConfig config;
    config.max_rounds = cap;
    config.record_trace = true;
    for (Node v = 0; v < g.size(); ++v) {
      for (std::uint64_t delay = 0; delay <= 6; ++delay) {
        SCOPED_TRACE("cap=" + std::to_string(cap) + " v=" +
                     std::to_string(v) + " delay=" + std::to_string(delay));
        std::vector<std::uint64_t> seen_seg;
        std::vector<std::uint64_t> seen_move;
        const RunResult a = run_anonymous(
            g, walks(true, terms, ports, &seen_seg), 0, v, delay, config);
        const RunResult b = run_anonymous(
            g, walks(false, terms, ports, &seen_move), 0, v, delay, config);
        ASSERT_TRUE(a.ok()) << a.error;
        expect_same_run(a, b);
        EXPECT_EQ(seen_seg, seen_move);
        if (a.met) ++met;
      }
    }
  }
  EXPECT_GT(met, 0u);
}

TEST(EngineSegments, MaxRoundsCutsASegmentLikeMoves) {
  const Graph g = families::oriented_ring(7);
  const std::vector<std::uint64_t> terms(40, 1);  // clockwise forever
  RunConfig config;
  config.max_rounds = 25;  // inside the first walk of 41 moves
  std::vector<std::uint64_t> seen_seg;
  std::vector<std::uint64_t> seen_move;
  const RunResult a = run_pair(g, walks(true, terms, {0}, &seen_seg),
                               sleeper_program(), 0, 3, 1'000, config);
  const RunResult b = run_pair(g, walks(false, terms, {0}, &seen_move),
                               sleeper_program(), 0, 3, 1'000, config);
  ASSERT_TRUE(a.ok()) << a.error;
  EXPECT_EQ(a.rounds_simulated, 25u);
  EXPECT_EQ(a.moves[0], 25u);
  expect_same_run(a, b);
}

TEST(EngineSegments, OutOfRangePortInASegmentIsTheMoveError) {
  // path(3): 0 -(0)- 1 -(?)- 2. The fourth port, 5, exceeds every
  // degree; the error must name the same port, degree and round.
  const Graph g = families::path_graph(3);
  const std::vector<Port> ports{0, 0, 0, 5, 0};
  RunConfig config;
  config.record_trace = true;
  std::vector<std::uint64_t> seen_seg;
  std::vector<std::uint64_t> seen_move;
  const RunResult a = run_pair(g, walks(true, {}, ports, &seen_seg),
                               sleeper_program(), 0, 2, 500, config);
  const RunResult b = run_pair(g, walks(false, {}, ports, &seen_move),
                               sleeper_program(), 0, 2, 500, config);
  EXPECT_FALSE(a.ok());
  EXPECT_NE(a.error.find("agent 0 used port 5 at a degree-"),
            std::string::npos)
      << a.error;
  expect_same_run(a, b);
  // Both agents walking: the bad step is chosen in a burst or at a
  // round where the other agent is resumed, depending on the delay.
  for (std::uint64_t delay = 0; delay <= 8; ++delay) {
    SCOPED_TRACE("delay=" + std::to_string(delay));
    expect_same_run(
        run_anonymous(g, walks(true, {2, 1}, ports, &seen_seg), 0, 2, delay,
                      config),
        run_anonymous(g, walks(false, {2, 1}, ports, &seen_move), 0, 2,
                      delay, config));
  }
}

TEST(EngineSegments, EmptySegmentsSpinLikeZeroWaits) {
  const Graph g = families::path_graph(3);
  std::vector<std::optional<Port>> entries;
  AgentProgram prog = [&entries](Mailbox& mb, Observation) -> Proc {
    return [](Mailbox& mb2, std::vector<std::optional<Port>>* out) -> Proc {
      co_await mb2.move(0);
      // An empty segment is a zero-length wait: same clock, no entry.
      const Observation o = co_await mb2.walk_ports({}, {});
      out->push_back(o.entry_port);
      EXPECT_EQ(o.clock, 1u);
      for (;;) co_await mb2.retrace({});
    }(mb, &entries);
  };
  const RunResult r = run_anonymous(g, prog, 0, 2, 0);
  EXPECT_EQ(r.error, "agent spun on zero-length waits");
  ASSERT_FALSE(entries.empty());
  EXPECT_EQ(entries[0], std::nullopt);
}

}  // namespace
}  // namespace rdv::sim
