// Pins of the engine's round-by-round semantics where a run's rounds
// are cut into pieces: meetings, crossings, caps and errors on every
// round from 0 to a few hundred (so on both sides of any piece
// boundary below that), delays that reach back across those
// boundaries, an error and a meeting due in the same round, self-loop
// moves, programs that end before the partner appears, and k-agent
// runs with spawns and errors in one round. Every constant was computed
// with the engine that advanced all agents of a run in lockstep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "core/universal_rv.hpp"
#include "graph/automorphism.hpp"
#include "graph/families/families.hpp"
#include "obs/metrics.hpp"
#include "graph/topology.hpp"
#include "sim/engine.hpp"
#include "sim/multi_engine.hpp"
#include "support/saturating.hpp"

namespace rdv::sim {
namespace {

using graph::Graph;
using graph::Node;
using graph::Port;
namespace families = rdv::graph::families;

class Digest {
 public:
  void add(std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (x >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(const std::string& s) {
    add(s.size());
    for (const char c : s) add(static_cast<unsigned char>(c));
  }
  void add(const Trace& t) {
    add(t.events().size());
    add(t.truncated() ? 1 : 0);
    for (const TraceEvent& e : t.events()) {
      add(e.round);
      add(e.agent);
      add(e.node);
      add(e.via_port);
    }
  }
  void add(const RunResult& r) {
    add(r.met ? 1 : 0);
    add(r.meet_round_absolute);
    add(r.meet_from_later_start);
    add(r.moves[0]);
    add(r.moves[1]);
    add(r.rounds_simulated);
    add(r.edge_crossings);
    add(r.final_pos[0]);
    add(r.final_pos[1]);
    add(r.programs_finished ? 1 : 0);
    add(r.error);
    add(r.trace);
  }
  void add(const MultiRunResult& r) {
    add(r.gathered ? 1 : 0);
    add(r.gather_round_absolute);
    add(r.gather_from_last_start);
    for (const std::uint64_t m : r.first_meeting) add(m);
    for (const std::uint64_t m : r.moves) add(m);
    add(r.rounds_simulated);
    add(r.edge_crossings);
    for (const Node v : r.final_pos) add(v);
    add(r.programs_finished ? 1 : 0);
    add(r.error);
    add(r.trace);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

AgentProgram sleeper() {
  return [](Mailbox& mb, Observation) -> Proc {
    return [](Mailbox& mb2) -> Proc {
      co_await mb2.wait(support::kRoundInfinity);
    }(mb);
  };
}

/// Waits `wait` rounds, then takes `port` every round, `moves` times
/// (forever when moves is kRoundInfinity), then takes `last_port` once
/// if it is not kNoPort, then ends.
AgentProgram walker(std::uint64_t wait, Port port, std::uint64_t moves,
                    Port last_port = kNoPort) {
  return [=](Mailbox& mb, Observation) -> Proc {
    return [](Mailbox& mb2, std::uint64_t w, Port p, std::uint64_t m,
              Port last) -> Proc {
      if (w > 0) co_await mb2.wait(w);
      for (std::uint64_t i = 0; i < m; ++i) co_await mb2.move(p);
      if (last != kNoPort) co_await mb2.move(last);
    }(mb, wait, port, moves, last_port);
  };
}

/// Walks segments of `length` moves through `port` forever, resting
/// `rest` rounds between segments.
AgentProgram segment_walker(std::uint32_t length, Port port,
                            std::uint64_t rest) {
  return [=](Mailbox& mb, Observation) -> Proc {
    return [](Mailbox& mb2, std::uint32_t len, Port p,
              std::uint64_t r) -> Proc {
      const std::vector<Port> ports(len, p);
      std::vector<Port> entries(len);
      for (;;) {
        co_await mb2.walk_ports(ports, entries);
        if (r > 0) co_await mb2.wait(r);
      }
    }(mb, length, port, rest);
  };
}

RunConfig config_with(std::uint64_t cap, bool trace = false,
                      std::size_t limit = 4096) {
  RunConfig config;
  config.max_rounds = cap;
  config.record_trace = trace;
  config.trace_limit = limit;
  return config;
}

// On oriented_ring(5), port 0 is clockwise and port 1 counterclockwise.
// A walker from node 0 meets a sleeper that appears at node v at round
// delay on the first round >= delay it stands on v: with delays to 300
// the meeting lands on every round up to about 305.
TEST(SimWindow, MeetingsOnEveryRoundNearBoundaries) {
  const Graph g = families::oriented_ring(5);
  Digest digest;
  std::uint64_t met = 0;
  for (std::uint64_t delay = 0; delay <= 300; ++delay) {
    for (Node v = 0; v < 5; ++v) {
      const RunResult r =
          run_pair(g, walker(0, 0, support::kRoundInfinity), sleeper(), 0, v,
                   delay, config_with(1000, delay % 16 == 0, 64));
      ASSERT_TRUE(r.ok()) << r.error;
      digest.add(r);
      if (r.met) ++met;
    }
  }
  EXPECT_EQ(met, 1505u);
  EXPECT_EQ(digest.value(), 0x72b5843a98f9f67aull) << std::hex << digest.value();
}

// Two walkers in opposite directions: they meet or cross once per
// approach. The later one rests `wait` rounds first, so meetings and
// crossings land on every round of the first few hundred, with delays
// that reach back across a piece boundary.
TEST(SimWindow, OppositeWalkersMeetAndCrossAcrossBoundaries) {
  const Graph g = families::oriented_ring(6);
  Digest digest;
  std::uint64_t crossings = 0;
  for (const std::uint64_t delay :
       {0u, 1u, 2u, 63u, 64u, 65u, 127u, 128u, 129u, 191u, 192u, 193u}) {
    for (std::uint64_t wait = 0; wait <= 260; wait += 3) {
      for (const Node v : {1u, 2u, 3u}) {
        const RunResult r = run_pair(
            g, segment_walker(7, 0, 1), walker(wait, 1, 1000), 0, v,
            delay, config_with(600, wait % 30 == 0, 1000));
        ASSERT_TRUE(r.ok()) << r.error;
        digest.add(r);
        crossings += r.edge_crossings;
      }
    }
  }
  EXPECT_EQ(crossings, 47u);
  EXPECT_EQ(digest.value(), 0xfdb6c553004bda21ull) << std::hex << digest.value();
}

// Same-direction walkers never meet: every cap from 0 to 300 ends the
// run mid-piece, with all moves up to and including the cap round.
TEST(SimWindow, RoundCapOnEveryRound) {
  const Graph g = families::oriented_ring(5);
  Digest digest;
  for (std::uint64_t cap = 0; cap <= 300; ++cap) {
    for (const std::uint64_t delay : {0u, 1u, 70u}) {
      digest.add(run_pair(g, walker(0, 0, support::kRoundInfinity),
                          segment_walker(5, 0, 0), 0, 2, delay,
                          config_with(cap, cap % 50 == 0, 2000)));
      digest.add(run_anonymous(g, segment_walker(9, 0, 2), 1, 3, delay,
                               config_with(cap)));
    }
  }
  EXPECT_EQ(digest.value(), 0xbf3945cbce698b1eull) << std::hex << digest.value();
}

/// Walks the port list `ports` as one segment, `times` times, resting
/// `rest` rounds after each; an out-of-range port in the list ends the
/// run with an error in the middle of the segment.
AgentProgram port_list_walker(std::vector<Port> ports, std::uint64_t times,
                              std::uint64_t rest) {
  return [=](Mailbox& mb, Observation) -> Proc {
    return [](Mailbox& mb2, std::vector<Port> list, std::uint64_t count,
              std::uint64_t r) -> Proc {
      std::vector<Port> entries(list.size());
      for (std::uint64_t i = 0; i < count; ++i) {
        co_await mb2.walk_ports(list, entries);
        if (r > 0) co_await mb2.wait(r);
      }
    }(mb, std::move(ports), times, rest);
  };
}

// An out-of-range port on every round up to about 300, taken by either
// agent, by a single move or in the middle of a segment, while the
// partner is elsewhere.
TEST(SimWindow, PortErrorOnEveryRound) {
  const Graph g = families::oriented_ring(5);
  Digest digest;
  std::uint64_t errors = 0;
  for (std::uint64_t wait = 0; wait <= 300; wait += 1) {
    const std::uint64_t delay = wait % 7;
    const RunResult early = run_pair(g, walker(wait, 0, 1, 9), sleeper(), 0,
                                     3, delay, config_with(1000));
    const RunResult late = run_pair(g, sleeper(), walker(wait, 0, 1, 5), 0, 2,
                                    delay,
                                    config_with(1000, wait % 40 == 0, 1000));
    std::vector<Port> ports(1 + wait % 13, 0);
    for (std::size_t i = 1; i < ports.size(); i += 2) ports[i] = 1;
    ports.push_back(4);
    const RunResult segment =
        run_pair(g, port_list_walker(ports, 1, 0), sleeper(), 1, 4, delay,
                 config_with(1000));
    const RunResult repeated =
        run_pair(g, sleeper(),
                 port_list_walker({0, 1, 0, 1, 0, 7}, 1 + wait / 6, wait % 3),
                 3, 1, delay, config_with(1000));
    for (const RunResult* r : {&early, &late, &segment, &repeated}) {
      digest.add(*r);
      if (!r->ok()) ++errors;
    }
  }
  EXPECT_EQ(errors, 1204u);
  EXPECT_EQ(digest.value(), 0x4566ba2ba0e5561dull) << std::hex << digest.value();
}

// The walker steps onto the sleeper's node and, in the same round,
// chooses an out-of-range port: the error ends the run before the
// meeting is seen. Both agent orders, at rounds around 64 and 192.
TEST(SimWindow, ErrorAndMeetingInTheSameRound) {
  const Graph g = families::oriented_ring(5);
  Digest digest;
  for (const std::uint64_t wait :
       {0u, 58u, 59u, 60u, 61u, 62u, 63u, 64u, 186u, 187u, 188u, 189u, 190u}) {
    for (const std::uint64_t delay : {0u, 1u, 3u}) {
      const RunResult first = run_pair(g, walker(wait, 0, 3, 6), sleeper(), 0,
                                       3, delay, config_with(1000, true));
      const RunResult second = run_pair(g, sleeper(), walker(wait, 0, 3, 6), 3,
                                        0, delay, config_with(1000, true));
      EXPECT_FALSE(first.ok());
      EXPECT_FALSE(second.ok());
      digest.add(first);
      digest.add(second);
    }
  }
  EXPECT_EQ(digest.value(), 0x166cbb7a6a2d7bbaull) << std::hex << digest.value();
}

/// Two nodes, degree 3 each: ports 0 and 1 of a node are the two ends
/// of a self-loop, port 2 joins the nodes.
class LoopPair final : public graph::ITopology {
 public:
  [[nodiscard]] Port degree(Node) const override { return 3; }
  [[nodiscard]] graph::Step step(Node v, Port p) const override {
    if (p == 2) return {1 - v, 2};
    return {v, 1 - p};
  }
  [[nodiscard]] std::string name() const override { return "loop_pair"; }
};

// Self-loop moves count as moves and trace events but never change the
// node, so they can neither cross nor end a meeting.
TEST(SimWindow, SelfLoopMoves) {
  const LoopPair g;
  Digest digest;
  for (std::uint64_t delay = 0; delay <= 140; delay += 7) {
    for (const std::uint64_t loops : {1u, 5u, 63u, 64u, 65u, 130u}) {
      digest.add(run_pair(g, walker(0, 0, loops, 2), walker(1, 1, 200), 0, 1,
                          delay, config_with(400, loops < 64, 500)));
      digest.add(run_pair(g, segment_walker(static_cast<std::uint32_t>(loops),
                                            0, 2),
                          walker(0, 2, 3), 0, 0, delay,
                          config_with(400, loops == 5, 500)));
    }
  }
  EXPECT_EQ(digest.value(), 0xdcfc77402a5e662dull) << std::hex << digest.value();
}

// The earlier program ends (and stays put) before the later agent
// appears; the later one appears on it, or ends elsewhere.
TEST(SimWindow, ProgramEndsBeforePartnerAppears) {
  const Graph g = families::oriented_ring(5);
  Digest digest;
  std::uint64_t finished = 0;
  for (std::uint64_t delay = 0; delay <= 200; delay += 1) {
    for (Node v = 0; v < 5; ++v) {
      const RunResult r = run_pair(g, walker(0, 0, 3), walker(delay % 5, 1, 2),
                                   0, v, delay, config_with(400));
      ASSERT_TRUE(r.ok()) << r.error;
      digest.add(r);
      if (r.programs_finished) ++finished;
    }
  }
  EXPECT_EQ(finished, 400u);
  EXPECT_EQ(digest.value(), 0xee663e5c7c2e3dc6ull) << std::hex << digest.value();
}

// Three and four agents with spawns across boundaries: first meetings
// of every pair, gathering, truncated traces.
TEST(SimWindow, MultiAgentSpawnsAcrossBoundaries) {
  const Graph g = families::oriented_ring(6);
  Digest digest;
  for (const std::uint64_t d1 : {0u, 5u, 63u, 64u, 65u, 191u}) {
    for (const std::uint64_t d2 : {0u, 2u, 64u, 100u, 192u}) {
      MultiRunConfig config;
      config.max_rounds = 500;
      config.record_trace = (d1 + d2) % 3 == 0;
      config.trace_limit = 40;
      std::vector<AgentSpec> three{
          {walker(0, 0, support::kRoundInfinity), 0, 0},
          {sleeper(), 3, d1},
          {segment_walker(4, 1, 1), 5, d2}};
      digest.add(run_multi(g, three, config));
      std::vector<AgentSpec> four{
          {walker(0, 0, 150), 0, 0},
          {walker(d2 % 4, 0, 100), 2, d1},
          {sleeper(), 4, d2},
          {walker(1, 1, 90), 1, d1 + d2}};
      digest.add(run_multi(g, four, config));
    }
  }
  EXPECT_EQ(digest.value(), 0x406ed8adabf886e6ull) << std::hex << digest.value();
}

// Errors in the round another agent spawns: an error of an agent
// already running comes first, and a spawning agent's error stops the
// spawns after it.
TEST(SimWindow, ErrorsInSpawnRounds) {
  const Graph g = families::oriented_ring(5);
  Digest digest;
  for (const std::uint64_t round : {1u, 2u, 63u, 64u, 65u, 130u}) {
    MultiRunConfig config;
    config.max_rounds = 500;
    config.record_trace = true;
    // Agent 0 errors when it chooses at `round`; agent 1 appears then
    // and errors at once; agent 2 appears then too.
    std::vector<AgentSpec> advance_first{
        {walker(round - 1, 0, 1, 7), 0, 0},
        {walker(0, 9, 1), 2, round},
        {sleeper(), 4, round}};
    digest.add(run_multi(g, advance_first, config));
    // Agent 0 moves at `round`; agent 1 appears and errors; agent 2,
    // appearing in the same round after it, never appears.
    std::vector<AgentSpec> spawn_error{
        {walker(0, 0, support::kRoundInfinity), 0, 0},
        {sleeper(), 3, round},
        {walker(0, 9, 1), 2, round},
        {sleeper(), 4, round}};
    digest.add(run_multi(g, spawn_error, config));
    // Two agents err in one round: the lower index is reported.
    std::vector<AgentSpec> both{
        {walker(round - 1, 0, 1, 7), 0, 0},
        {walker(round - 1, 1, 1, 8), 1, 0}};
    digest.add(run_multi(g, both, config));
  }
  EXPECT_EQ(digest.value(), 0xc510e7c2c7a24185ull) << std::hex << digest.value();
}

// run_anonymous_all serves runs from shared paths, dropping the rounds
// no open run needs any more: delays that reach several windows past
// the first, next to runs that last to the cap on the same paths, give
// each run what run_anonymous gives it alone. The last pass runs long
// enough to reach the longest windows.
TEST(SimWindow, SharedPathsMatchSingleRunsAcrossLongDelays) {
  const Graph g = families::oriented_ring(4);
  std::vector<Stic> starts;
  for (const std::uint64_t delay :
       {0u, 1u, 15u, 16u, 17u, 60u, 200u, 1000u, 5000u}) {
    for (Node u = 0; u < 4; ++u) {
      for (Node v = 0; v < 4; ++v) starts.push_back({u, v, delay});
    }
  }
  for (const int pass : {0, 1, 2}) {
    for (const AgentProgram& program :
         {segment_walker(3, 0, 1), segment_walker(5, 1, 2),
          walker(7, 0, 40, 1)}) {
      const RunConfig config =
          config_with(pass == 2 ? 100000 : 20000, pass == 1, 300);
      const std::vector<RunResult> shared =
          run_anonymous_all(g, program, starts, config);
      ASSERT_EQ(shared.size(), starts.size());
      for (std::size_t i = 0; i < starts.size(); ++i) {
        const Stic& s = starts[i];
        Digest alone;
        alone.add(run_anonymous(g, program, s.u, s.v, s.delay, config));
        Digest together;
        together.add(shared[i]);
        EXPECT_EQ(together.value(), alone.value())
            << "STIC [(" << s.u << ", " << s.v << "), " << s.delay
            << "]";
      }
    }
  }
}

/// Leaves every node by (entry + 1) mod degree (port 0 at the start and
/// after a rest), resting `rest` rounds after every `period` moves: the
/// path follows what the agent perceives, not a fixed port list.
AgentProgram rotor(std::uint64_t period, std::uint64_t rest) {
  return [=](Mailbox& mb, Observation) -> Proc {
    return [](Mailbox& mb2, std::uint64_t p, std::uint64_t r) -> Proc {
      for (std::uint64_t i = 1;; ++i) {
        const Observation& o = mb2.last();
        co_await mb2.move(static_cast<Port>((o.entry_port.value_or(0) + 1) %
                                            o.degree));
        if (i % p == 0) co_await mb2.wait(r);
      }
    }(mb, period, rest);
  };
}

/// The Cayley graph of S_k on the adjacent transpositions: port p swaps
/// the entries at positions p and p + 1 and enters through port p.
Graph bubble_sort_graph(std::uint32_t k) {
  std::vector<std::uint32_t> perm(k);
  std::iota(perm.begin(), perm.end(), 0u);
  std::map<std::vector<std::uint32_t>, Node> id;
  do {
    id.emplace(perm, static_cast<Node>(id.size()));
  } while (std::next_permutation(perm.begin(), perm.end()));
  std::vector<std::vector<graph::HalfEdge>> adj(id.size());
  for (const auto& [node_perm, node] : id) {
    for (Port p = 0; p + 1 < k; ++p) {
      std::vector<std::uint32_t> next = node_perm;
      std::swap(next[p], next[p + 1]);
      adj[node].push_back({id.at(next), p});
    }
  }
  return Graph(std::move(adj), "bubble-sort-" + std::to_string(k));
}

/// One view class, simple, and no automorphism but the identity: ports 0
/// and 1 step x -> sigma(x) and back, port 2 is the involution tau.
Graph cubic10() {
  const std::vector<Node> sigma{6, 9, 7, 2, 8, 4, 1, 0, 3, 5};
  const std::vector<Node> tau{4, 5, 8, 6, 0, 1, 3, 9, 2, 7};
  std::vector<Node> inverse(sigma.size());
  for (Node x = 0; x < sigma.size(); ++x) inverse[sigma[x]] = x;
  std::vector<std::vector<graph::HalfEdge>> adj(sigma.size());
  for (Node x = 0; x < sigma.size(); ++x) {
    adj[x] = {{sigma[x], 1}, {inverse[x], 0}, {tau[x], 2}};
  }
  return Graph(std::move(adj), "cubic10");
}

// run_anonymous_all generates one path per automorphism orbit of start
// nodes and merges one run per orbit of runs; every other run is served
// by relabeling. Each run must still equal run_anonymous alone, field
// by field with its trace, on T2's graphs and on transitive graphs
// (hypercube, torus, Cayley graphs of S_3 and S_4), with a program that
// follows its observations, one that walks segments, one that takes an
// out-of-range port, and UniversalRV, at delays on both sides of the
// first window edges. cubic10 has one view class but no automorphism
// besides the identity, so its symmetric pairs share nothing.
TEST(SimWindow, OrbitSharedRunsMatchSingleRuns) {
  namespace fam = graph::families;
  std::vector<Graph> graphs;
  graphs.push_back(fam::two_node_graph());
  graphs.push_back(fam::oriented_ring(3));
  graphs.push_back(fam::path_graph(3));
  graphs.push_back(fam::oriented_ring(4));
  graphs.push_back(fam::symmetric_double_tree(1, 1));
  graphs.push_back(fam::hypercube(3));
  graphs.push_back(fam::oriented_torus(3, 3));
  graphs.push_back(bubble_sort_graph(3));
  graphs.push_back(bubble_sort_graph(4));
  graphs.push_back(cubic10());
  core::UniversalOptions universal;
  universal.max_phases = 12;
  const std::vector<AgentProgram> programs{
      rotor(5, 3), segment_walker(3, 1, 2),
      port_list_walker({0, 1, 1, 0, 0, 1, 9}, 1, 20),
      core::universal_rv_program(universal)};
  obs::Counter& paths = obs::counter("sim.paths");
  obs::Counter& images = obs::counter("sim.images");
  std::uint64_t errors = 0;
  for (const Graph& g : graphs) {
    SCOPED_TRACE(g.name());
    const std::vector<Node> orbit = graph::automorphism_orbits(g);
    const std::set<Node> orbits(orbit.begin(), orbit.end());
    std::vector<Stic> starts;
    for (const std::uint64_t delay : {0u, 1u, 15u, 16u, 17u, 130u}) {
      for (Node u = 0; u < g.size(); ++u) {
        for (Node v = 0; v < g.size(); ++v) {
          if (u != v) starts.push_back({u, v, delay});
        }
      }
    }
    for (std::size_t p = 0; p < programs.size(); ++p) {
      const RunConfig config = config_with(p == 3 ? 6000 : 1500, true, 40);
      const std::uint64_t paths_before = paths.value();
      const std::uint64_t images_before = images.value();
      const std::vector<RunResult> shared =
          run_anonymous_all(g, programs[p], starts, config);
      EXPECT_EQ(paths.value() - paths_before, orbits.size());
      EXPECT_EQ(images.value() - images_before, g.size() - orbits.size());
      ASSERT_EQ(shared.size(), starts.size());
      for (std::size_t i = 0; i < starts.size(); ++i) {
        const Stic& s = starts[i];
        const RunResult alone =
            run_anonymous(g, programs[p], s.u, s.v, s.delay, config);
        Digest a;
        a.add(alone);
        Digest b;
        b.add(shared[i]);
        EXPECT_EQ(b.value(), a.value())
            << "program " << p << ", STIC [(" << s.u << ", " << s.v
            << "), " << s.delay << "]";
        if (!alone.ok()) ++errors;
      }
    }
  }
  // The port list fails on every graph, in every run whose agent gets
  // to port 9 before the run ends.
  EXPECT_GT(errors, 0u);
  const std::vector<Node> alone = graph::automorphism_orbits(cubic10());
  EXPECT_EQ(std::set<Node>(alone.begin(), alone.end()).size(), alone.size());
}

}  // namespace
}  // namespace rdv::sim
