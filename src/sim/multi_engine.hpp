#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/topology.hpp"
#include "sim/agent.hpp"
#include "sim/trace.hpp"

/// k-agent synchronous engine — the substrate for the paper's
/// "gathering" generalization (Section 1 cites [25, 37, 43]): several
/// anonymous agents with adversarial starting rounds; gathering is all
/// of them at one node in one round. The two-agent engine
/// (sim/engine.hpp) runs on the same code.
///
/// Generate, then merge. An agent perceives only degrees, entry ports
/// and its own clock, never the other agents, so its path — the node it
/// occupies at each round of its own clock, and whether a move landed
/// there — depends only on its program and its start node. The engine
/// generates each agent's path alone, one window of rounds at a time
/// (a window is an eighth of the rounds before it, from 16 up to 65,536
/// rounds), and one merger
/// derives everything else from the k paths: meetings, crossings,
/// per-agent moves, final positions, programs_finished, errors and the
/// trace. Within a round the merger applies, in this order: the moves
/// landing then (trace events in agent order, crossings); errors of the
/// agents choosing their next action then, in agent order; the agents
/// appearing then, in agent order (an error of one stops the appearances
/// after it); meetings and gathering; every program having ended; the
/// round cap. The merger alone ends a run; a path is generated past
/// that round only as far as its window reaches. A path on a lazy
/// topology stops at a step that would intern a node (one that
/// ITopology::peek cannot resolve); the merger takes it once the run
/// reaches that round, in the round's agent order. An image path
/// (sim/engine.hpp, explicit graphs only) is not generated: after each
/// window it holds its representative's rounds with every node
/// relabeled, and the merger reads it like any other path. The merge
/// reads node ids as they are and never relabels per round.
namespace rdv::sim {

struct AgentSpec {
  AgentProgram program;
  graph::Node start = 0;
  std::uint64_t start_round = 0;
};

struct MultiRunConfig {
  /// Hard cap on absolute rounds.
  std::uint64_t max_rounds = 1'000'000;
  /// Record a bounded move trace for diagnostics.
  bool record_trace = false;
  std::size_t trace_limit = 4096;
};

inline constexpr std::uint64_t kNever = static_cast<std::uint64_t>(-1);

struct MultiRunResult {
  /// All agents present at the same node in the same round.
  bool gathered = false;
  std::uint64_t gather_round_absolute = 0;
  /// Rounds from the LAST agent's start to the gathering.
  std::uint64_t gather_from_last_start = 0;
  /// first_meeting[i * k + j] (i < j): absolute round agents i and j
  /// first shared a node (both present), or kNever.
  std::vector<std::uint64_t> first_meeting;
  std::uint64_t rounds_simulated = 0;
  std::uint64_t edge_crossings = 0;
  std::vector<std::uint64_t> moves;
  std::vector<graph::Node> final_pos;
  bool programs_finished = false;
  std::string error;
  Trace trace;

  [[nodiscard]] bool ok() const { return error.empty(); }
  [[nodiscard]] std::uint64_t meeting_of(std::size_t i, std::size_t j,
                                         std::size_t k) const {
    if (i > j) std::swap(i, j);
    return first_meeting[i * k + j];
  }
};

/// Runs all agents; terminates on gathering, on an error, on every
/// program finishing, or at the round cap.
[[nodiscard]] MultiRunResult run_multi(const graph::ITopology& g,
                                       const std::vector<AgentSpec>& agents,
                                       const MultiRunConfig& config = {});

}  // namespace rdv::sim
