#pragma once

#include <array>
#include <cstdint>
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
/// A run is the k = 2 case of run_multi, which ends when the two agents
/// gather, that is meet: each agent's path is generated alone and the
/// paths are merged, 64 rounds at a time between events, whether or not
/// a trace is recorded. A path depends only on the program and the
/// start node, so run_anonymous_all serves every run of one graph that
/// starts at a node from that node's one path.
///
/// Image paths. A port-preserving automorphism φ
/// (graph/automorphism.hpp) keeps degrees and entry ports, so an agent
/// started at φ(x) perceives what one started at x does, round by
/// round, and P_φ(x)(t) = φ(P_x(t)) for moves, self-loops and port
/// errors alike. run_anonymous_all therefore generates one path per
/// automorphism orbit of start nodes, from the orbit's least node (its
/// representative); every other start node x of the orbit gets an image
/// path: after each window it holds the representative's rounds with
/// every node mapped through the automorphism taking it to x, and its
/// moved flags, ports, state and error unchanged. The run
/// [(φ(u), φ(v)), δ] is likewise the run [(u, v), δ] with every node
/// mapped through φ, so each orbit of runs is merged once, with the
/// earlier agent at a representative, and its other runs are copies
/// with final positions and trace nodes mapped. Lazy topologies never
/// get images.
///
/// The sim.* counters count the work: sim.runs the runs merged,
/// sim.paths the single-agent paths generated, sim.images the paths
/// produced by relabeling instead, sim.windows the windows paths were
/// generated in, sim.moves and sim.rounds the moves and rounds
/// generated (with shared paths fewer than the runs' own; a stretch in
/// which every agent rests is skipped, not generated), sim.resumes and
/// sim.segments the coroutine resumes and walk segments, and
/// sim.generate_ns and sim.merge_ns the wall time spent generating and
/// relabeling paths and merging runs (one clock read after each per
/// window).
namespace rdv::sim {

/// max_rounds caps absolute rounds: a run that does not meet by the cap
/// is reported as not met. (Budgets inside algorithms saturate, so the
/// cap is the only thing bounding a run on an infeasible STIC.)
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

/// STIC [(u, v), delay]: u is the earlier agent's start node, v the
/// later agent's, delay the rounds between their appearances.
struct Stic {
  graph::Node u = 0;
  graph::Node v = 0;
  std::uint64_t delay = 0;

  friend bool operator==(const Stic&, const Stic&) = default;
};

/// run_anonymous on every given STIC of g, element i for runs[i]: the
/// same results, field for field, from one generated path per orbit of
/// start nodes (see above), each extended only while a run still needs
/// it, and one merge per orbit of runs.
[[nodiscard]] std::vector<RunResult> run_anonymous_all(
    const graph::Graph& g, const AgentProgram& program,
    const std::vector<Stic>& runs, const RunConfig& config = {});

}  // namespace rdv::sim
