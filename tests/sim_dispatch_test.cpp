// The engine picks its specialization once per run: an explicit
// `graph::Graph` is simulated through its final type, any other
// topology through the virtual ITopology interface, and two-agent runs
// use fixed-size storage. A forwarding wrapper around a Graph forces
// the virtual path on the same graph, so the two paths must agree on
// every result field, trace event and first-meeting cell, for plain
// moves and for walk segments (including an out-of-range port inside
// one). The k = 2 (run_anonymous) and k = 3, 4 (run_multi) cases below
// exercise all four (topology, agent-count) instantiations.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/stics.hpp"
#include "cache/artifact_cache.hpp"
#include "core/asymm_rv.hpp"
#include "core/bounds.hpp"
#include "core/symm_rv.hpp"
#include "core/universal_rv.hpp"
#include "graph/families/families.hpp"
#include "sim/engine.hpp"
#include "sim/multi_engine.hpp"

namespace rdv::sim {
namespace {

using graph::Graph;
namespace families = rdv::graph::families;

/// Same graph, reached only through virtual calls.
class ForwardingTopology final : public graph::ITopology {
 public:
  explicit ForwardingTopology(const Graph& g) : g_(g) {}
  [[nodiscard]] graph::Port degree(graph::Node v) const override {
    return g_.degree(v);
  }
  [[nodiscard]] graph::Step step(graph::Node v, graph::Port p) const override {
    return g_.step(v, p);
  }
  [[nodiscard]] std::string name() const override { return g_.name(); }

 private:
  const Graph& g_;
};

void expect_same_trace(const Trace& direct, const Trace& forwarded) {
  EXPECT_EQ(direct.truncated(), forwarded.truncated());
  ASSERT_EQ(direct.events().size(), forwarded.events().size());
  for (std::size_t i = 0; i < direct.events().size(); ++i) {
    const TraceEvent& a = direct.events()[i];
    const TraceEvent& b = forwarded.events()[i];
    EXPECT_EQ(a.round, b.round) << "event " << i;
    EXPECT_EQ(a.agent, b.agent) << "event " << i;
    EXPECT_EQ(a.node, b.node) << "event " << i;
    EXPECT_EQ(a.via_port, b.via_port) << "event " << i;
  }
}

void expect_same(const RunResult& direct, const RunResult& forwarded) {
  EXPECT_EQ(direct.met, forwarded.met);
  EXPECT_EQ(direct.meet_round_absolute, forwarded.meet_round_absolute);
  EXPECT_EQ(direct.meet_from_later_start, forwarded.meet_from_later_start);
  EXPECT_EQ(direct.rounds_simulated, forwarded.rounds_simulated);
  EXPECT_EQ(direct.edge_crossings, forwarded.edge_crossings);
  EXPECT_EQ(direct.moves, forwarded.moves);
  EXPECT_EQ(direct.final_pos, forwarded.final_pos);
  EXPECT_EQ(direct.programs_finished, forwarded.programs_finished);
  EXPECT_EQ(direct.error, forwarded.error);
  expect_same_trace(direct.trace, forwarded.trace);
}

void expect_same(const MultiRunResult& direct,
                 const MultiRunResult& forwarded) {
  EXPECT_EQ(direct.gathered, forwarded.gathered);
  EXPECT_EQ(direct.gather_round_absolute, forwarded.gather_round_absolute);
  EXPECT_EQ(direct.gather_from_last_start, forwarded.gather_from_last_start);
  EXPECT_EQ(direct.first_meeting, forwarded.first_meeting);
  EXPECT_EQ(direct.rounds_simulated, forwarded.rounds_simulated);
  EXPECT_EQ(direct.edge_crossings, forwarded.edge_crossings);
  EXPECT_EQ(direct.moves, forwarded.moves);
  EXPECT_EQ(direct.final_pos, forwarded.final_pos);
  EXPECT_EQ(direct.programs_finished, forwarded.programs_finished);
  EXPECT_EQ(direct.error, forwarded.error);
  expect_same_trace(direct.trace, forwarded.trace);
}

AgentProgram universal(std::uint64_t max_phases) {
  core::UniversalOptions options;
  options.max_phases = max_phases;
  return core::universal_rv_program(options);
}

TEST(SimDispatch, TwoAgentRunsMatchThroughVirtualTopology) {
  const AgentProgram program = universal(30);
  RunConfig config;
  config.max_rounds = 1u << 18;
  config.record_trace = true;
  config.trace_limit = 1u << 12;
  std::uint64_t met = 0;
  for (const Graph& g :
       {families::oriented_ring(4), families::symmetric_double_tree(1, 1),
        families::path_graph(3)}) {
    const ForwardingTopology forwarded(g);
    for (const analysis::Stic& s : analysis::enumerate_stics(g, 2)) {
      SCOPED_TRACE(g.name() + " u=" + std::to_string(s.u) +
                   " v=" + std::to_string(s.v) +
                   " delay=" + std::to_string(s.delay));
      const RunResult a = run_anonymous(g, program, s.u, s.v, s.delay, config);
      const RunResult b =
          run_anonymous(forwarded, program, s.u, s.v, s.delay, config);
      ASSERT_TRUE(a.ok()) << a.error;
      expect_same(a, b);
      if (a.met) ++met;
    }
  }
  EXPECT_GT(met, 0u);
}

TEST(SimDispatch, MultiAgentRunsMatchThroughVirtualTopology) {
  const AgentProgram program = universal(20);
  MultiRunConfig config;
  config.max_rounds = 1u << 16;
  config.record_trace = true;
  config.trace_limit = 1u << 12;
  const Graph g = families::oriented_ring(5);
  const ForwardingTopology forwarded(g);
  for (std::uint64_t delay = 0; delay <= 2; ++delay) {
    SCOPED_TRACE("delay=" + std::to_string(delay));
    const std::vector<AgentSpec> three{
        {program, 0, 0}, {program, 2, delay}, {program, 3, 2 * delay}};
    expect_same(run_multi(g, three, config),
                run_multi(forwarded, three, config));
    const std::vector<AgentSpec> four{{program, 0, 0},
                                      {program, 1, delay},
                                      {program, 2, 0},
                                      {program, 4, delay + 1}};
    expect_same(run_multi(g, four, config), run_multi(forwarded, four, config));
  }
}

TEST(SimDispatch, ErrorsMatchThroughVirtualTopology) {
  const AgentProgram bad_port = [](Mailbox& mb, Observation) -> Proc {
    return [](Mailbox& mb2) -> Proc {
      co_await mb2.move(0);
      co_await mb2.move(7);
    }(mb);
  };
  const Graph g = families::path_graph(3);
  const ForwardingTopology forwarded(g);
  RunConfig config;
  config.record_trace = true;
  const RunResult a = run_anonymous(g, bad_port, 0, 2, 1, config);
  EXPECT_FALSE(a.ok());
  expect_same(a, run_anonymous(forwarded, bad_port, 0, 2, 1, config));
}

TEST(SimDispatch, SegmentProgramsMatchThroughVirtualTopology) {
  // AsymmRV applies Y and walks back in segments; SymmRV with d = 2
  // explores by port-list segments and goes home by retrace.
  RunConfig config;
  config.max_rounds = 1u << 16;
  config.record_trace = true;
  config.trace_limit = 1u << 14;
  for (const Graph& g :
       {families::oriented_ring(4), families::symmetric_double_tree(1, 1),
        families::path_graph(3)}) {
    const ForwardingTopology forwarded(g);
    const auto y = cache::cached_uxs(g.size());
    const AgentProgram symm = core::symm_rv_program(g.size(), 2, 3, *y);
    for (const analysis::Stic& s : analysis::enumerate_stics(g, 2)) {
      SCOPED_TRACE(g.name() + " u=" + std::to_string(s.u) +
                   " v=" + std::to_string(s.v) +
                   " delay=" + std::to_string(s.delay));
      const AgentProgram asymm = core::asymm_rv_program(
          g.size(), *y,
          core::asymm_rv_time_bound(g.size(), s.delay, y->length()));
      for (const AgentProgram* program : {&asymm, &symm}) {
        const RunResult a =
            run_anonymous(g, *program, s.u, s.v, s.delay, config);
        ASSERT_TRUE(a.ok()) << a.error;
        expect_same(a, run_anonymous(forwarded, *program, s.u, s.v, s.delay,
                                     config));
      }
    }
  }
}

TEST(SimDispatch, SegmentErrorsMatchThroughVirtualTopology) {
  const AgentProgram bad_port = [](Mailbox& mb, Observation) -> Proc {
    return [](Mailbox& mb2) -> Proc {
      const std::vector<graph::Port> ports{0, 0, 7};
      std::vector<graph::Port> entries(ports.size());
      co_await mb2.walk_ports(ports, entries);
    }(mb);
  };
  const Graph g = families::oriented_ring(6);
  const ForwardingTopology forwarded(g);
  RunConfig config;
  config.record_trace = true;
  for (std::uint64_t delay = 0; delay <= 3; ++delay) {
    const RunResult a = run_anonymous(g, bad_port, 0, 3, delay, config);
    EXPECT_FALSE(a.ok());
    expect_same(a, run_anonymous(forwarded, bad_port, 0, 3, delay, config));
  }
}

}  // namespace
}  // namespace rdv::sim
