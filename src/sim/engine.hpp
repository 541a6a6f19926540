#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/topology.hpp"
#include "sim/agent.hpp"
#include "sim/multi_engine.hpp"
#include "sim/trace.hpp"

namespace rdv::graph {
class Graph;
}  // namespace rdv::graph

/// Synchronous two-agent rendezvous engine (the model of Section 1).
///
/// The earlier agent appears at its start node at absolute round 0, the
/// later agent at absolute round `delay`; each agent's local clock
/// starts at its own appearance. Rendezvous happens when both agents
/// occupy the same node in the same round; agents crossing the same
/// edge in opposite directions do NOT meet (but the engine counts such
/// crossings for diagnostics). The reported rendezvous time is counted
/// from the later agent's start, the paper's cost measure.
///
/// A run is the k = 2 case of run_multi, stopping on its pair: each
/// agent's path is generated alone and the paths are merged. A path
/// depends only on the program and the start node, so
/// run_anonymous_all serves every run of one graph that starts at a
/// node from that node's one path.
///
/// The sim.* counters count the work: sim.runs the runs merged,
/// sim.paths the single-agent paths generated, sim.windows the windows
/// they were generated in, sim.moves and sim.rounds the moves and
/// rounds generated (with shared paths fewer than the runs' own; a
/// stretch in which every agent rests is skipped, not generated), and
/// sim.resumes and sim.segments the coroutine resumes and walk
/// segments.
namespace rdv::sim {

/// max_rounds caps absolute rounds: a run that does not meet by the cap
/// is reported as not met. (Budgets inside algorithms saturate, so the
/// cap is the only thing bounding a run on an infeasible STIC.) The
/// stop pair is set by the two-agent calls themselves.
using RunConfig = MultiRunConfig;

struct RunResult {
  bool met = false;
  /// Absolute round of the meeting (valid when met).
  std::uint64_t meet_round_absolute = 0;
  /// Rounds from the later agent's start to the meeting — the paper's
  /// rendezvous time (valid when met).
  std::uint64_t meet_from_later_start = 0;
  /// Absolute rounds actually simulated.
  std::uint64_t rounds_simulated = 0;
  /// Times the agents swapped positions through one edge in one round.
  std::uint64_t edge_crossings = 0;
  std::array<std::uint64_t, 2> moves{0, 0};
  std::array<graph::Node, 2> final_pos{graph::kNoNode, graph::kNoNode};
  /// Both agent programs ran to completion without meeting (they halt
  /// in place forever; a meet can still have happened earlier).
  bool programs_finished = false;
  /// Diagnostics: nonempty if a program misbehaved (threw, spun on
  /// zero-length waits, or used an out-of-range port).
  std::string error;
  Trace trace;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Runs `program_earlier` from `start_earlier` (appearing at round 0)
/// and `program_later` from `start_later` (appearing at round `delay`).
/// For the anonymous model pass the same program twice (see
/// run_anonymous).
[[nodiscard]] RunResult run_pair(const graph::ITopology& g,
                                 const AgentProgram& program_earlier,
                                 const AgentProgram& program_later,
                                 graph::Node start_earlier,
                                 graph::Node start_later,
                                 std::uint64_t delay,
                                 const RunConfig& config = {});

/// The paper's setting: both agents execute the same deterministic
/// program; the STIC is [(start_earlier, start_later), delay].
[[nodiscard]] RunResult run_anonymous(const graph::ITopology& g,
                                      const AgentProgram& program,
                                      graph::Node start_earlier,
                                      graph::Node start_later,
                                      std::uint64_t delay,
                                      const RunConfig& config = {});

/// The STIC [(earlier, later), delay] of one anonymous run.
struct PairStarts {
  graph::Node earlier = 0;
  graph::Node later = 0;
  std::uint64_t delay = 0;
};

/// Runs fn(i) for every i < n, in any order and on any threads.
using FanOut = std::function<void(std::size_t n,
                                  const std::function<void(std::size_t)>& fn)>;

/// run_anonymous on every given STIC of g, element i for runs[i]: the
/// same results, from one path per start node, each extended only while
/// a run still needs it. Long windows generate their paths, then merge
/// their runs, through `fan_out` (on the calling thread when empty);
/// the program must then be callable from several threads at once.
[[nodiscard]] std::vector<RunResult> run_anonymous_all(
    const graph::Graph& g, const AgentProgram& program,
    const std::vector<PairStarts>& runs, const RunConfig& config = {},
    const FanOut& fan_out = {});

}  // namespace rdv::sim
