#include "sim/multi_engine.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <sstream>
#include <type_traits>

#include "graph/graph.hpp"
#include "support/saturating.hpp"

namespace rdv::sim {
namespace {

using graph::ITopology;
using graph::Node;
using graph::Port;
using support::kRoundInfinity;
using support::sat_add;

struct AgentState {
  Mailbox mailbox;
  std::optional<Proc> proc;
  Node pos = graph::kNoNode;
  Node start_node = graph::kNoNode;
  std::uint64_t start_round = 0;
  std::uint64_t busy_until = kRoundInfinity;
  Node move_target = graph::kNoNode;
  Port move_port = 0;
  /// Entry port the next observation reports: set when the action is
  /// chosen, so delivering it is a plain copy.
  std::optional<Port> arrival_entry;
  bool started = false;
  bool finished = false;
  bool action_is_move = false;
  bool has_action = false;
  std::uint64_t moves = 0;
  std::uint32_t zero_wait_spin = 0;
};

/// Per-agent storage: a fixed-size array when the agent count is known
/// at compile time (K > 0), so every per-agent loop has a constant trip
/// count; a vector sized once per run otherwise (K == 0).
template <class T, std::size_t K>
using PerAgent = std::conditional_t<K == 0, std::vector<T>, std::array<T, K>>;

/// The one engine body. `Topo` is the static type the runner calls
/// degree/step on: `graph::Graph` (final, accessors inline) for explicit
/// graphs, `ITopology` for everything else. Nothing is allocated per
/// event: the per-event scratch (`old_pos_`, `moved_`) is sized once.
template <class Topo, std::size_t K>
class MultiRunner {
 public:
  MultiRunner(const Topo& g, const MultiRunConfig& config, std::size_t k)
      : g_(g), config_(config) {
    if constexpr (K == 0) {
      agents_.resize(k);
      old_pos_.resize(k);
      moved_.resize(k);
    }
    if (config.record_trace) result_.trace.enable(config.trace_limit);
    result_.first_meeting.assign(k * k, kNever);
    result_.moves.assign(k, 0);
    result_.final_pos.assign(k, graph::kNoNode);
  }

  MultiRunResult run(const std::vector<AgentSpec>& specs) {
    const std::size_t k = agents_.size();
    for (std::size_t i = 0; i < k; ++i) {
      agents_[i].start_node = specs[i].start;
      agents_[i].start_round = specs[i].start_round;
    }

    std::size_t unstarted = k;
    std::uint64_t round = 0;
    for (;;) {
      // Spawn agents whose starting round arrived; once all have, the
      // scan is skipped for the rest of the run.
      for (std::size_t i = 0; unstarted > 0 && i < k; ++i) {
        AgentState& a = agents_[i];
        if (!a.started && a.start_round == round) {
          a.started = true;
          --unstarted;
          a.pos = a.start_node;
          result_.trace.record(round, static_cast<std::uint32_t>(i), a.pos,
                               kNoPort);
          const Observation initial{g_.degree(a.pos), std::nullopt, 0};
          a.mailbox.set_initial(initial);
          a.proc.emplace(specs[i].program(a.mailbox, initial));
          a.proc->start();
          collect(i, round);
          if (!result_.ok()) return finish(round);
        }
      }

      // One pass over the agents: presence, gathering, termination and
      // the next event round.
      bool all_same = true;
      bool everything_done = unstarted == 0;
      std::uint64_t next = kRoundInfinity;
      for (std::size_t i = 0; i < k; ++i) {
        const AgentState& a = agents_[i];
        if (!a.started) {
          next = std::min(next, a.start_round);
          continue;
        }
        if (a.pos != agents_[0].pos) all_same = false;
        if (!a.finished) {
          everything_done = false;
          if (a.has_action) next = std::min(next, a.busy_until);
        }
      }
      bool stop_pair_met = false;
      for (std::size_t i = 0; i < k; ++i) {
        if (!agents_[i].started) continue;
        for (std::size_t j = i + 1; j < k; ++j) {
          if (!agents_[j].started) continue;
          if (agents_[i].pos == agents_[j].pos) {
            auto& cell = result_.first_meeting[i * k + j];
            if (cell == kNever) cell = round;
            if (static_cast<int>(i) == config_.stop_on_pair_a &&
                static_cast<int>(j) == config_.stop_on_pair_b) {
              stop_pair_met = true;
            }
          }
        }
      }
      if (unstarted == 0 && all_same) {
        result_.gathered = true;
        result_.gather_round_absolute = round;
        std::uint64_t last_start = 0;
        for (const AgentState& a : agents_) {
          last_start = std::max(last_start, a.start_round);
        }
        result_.gather_from_last_start = round - last_start;
        return finish(round);
      }
      if (stop_pair_met) return finish(round);
      if (everything_done) {
        result_.programs_finished = true;
        return finish(round);
      }

      // Advance to the next event, or stop at the cap.
      if (next > config_.max_rounds || next == kRoundInfinity) {
        return finish(config_.max_rounds);
      }
      round = next;

      // Apply move completions, then detect pairwise swaps, then
      // resume.
      for (std::size_t i = 0; i < k; ++i) {
        old_pos_[i] = agents_[i].pos;
        moved_[i] = 0;
      }
      for (std::size_t i = 0; i < k; ++i) {
        AgentState& a = agents_[i];
        if (!a.started || a.finished || !a.has_action ||
            a.busy_until != round) {
          continue;
        }
        if (a.action_is_move) {
          a.pos = a.move_target;
          ++a.moves;
          moved_[i] = 1;
          result_.trace.record(round, static_cast<std::uint32_t>(i), a.pos,
                               a.move_port);
        }
      }
      for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = i + 1; j < k; ++j) {
          if (moved_[i] && moved_[j] && agents_[i].pos == old_pos_[j] &&
              agents_[j].pos == old_pos_[i] &&
              agents_[i].pos != agents_[j].pos) {
            ++result_.edge_crossings;
          }
        }
      }
      for (std::size_t i = 0; i < k; ++i) {
        AgentState& a = agents_[i];
        if (!a.started || a.finished || !a.has_action ||
            a.busy_until != round) {
          continue;
        }
        a.has_action = false;
        Observation obs;
        obs.degree = g_.degree(a.pos);
        obs.entry_port = a.arrival_entry;
        obs.clock = round - a.start_round;
        a.mailbox.deliver_and_resume(obs);
        collect(i, round);
        if (!result_.ok()) return finish(round);
      }
    }
  }

 private:
  void collect(std::size_t i, std::uint64_t round) {
    AgentState& a = agents_[i];
    for (;;) {
      if (a.proc->done()) {
        try {
          a.proc->rethrow_if_failed();
        } catch (const std::exception& e) {
          std::ostringstream err;
          err << "agent " << i << " threw: " << e.what();
          result_.error = err.str();
        }
        a.finished = true;
        a.busy_until = kRoundInfinity;
        return;
      }
      if (!a.mailbox.has_pending()) {
        result_.error = "agent suspended without an action";
        a.finished = true;
        return;
      }
      const Action action = a.mailbox.take_action();
      if (action.kind == Action::Kind::kMove) {
        if (action.port >= g_.degree(a.pos)) {
          std::ostringstream err;
          err << "agent " << i << " used port " << action.port
              << " at a degree-" << g_.degree(a.pos) << " node";
          result_.error = err.str();
          a.finished = true;
          return;
        }
        const graph::Step s = g_.step(a.pos, action.port);
        a.move_target = s.to;
        a.move_port = action.port;
        a.arrival_entry = s.entry_port;
        a.action_is_move = true;
        a.has_action = true;
        a.busy_until = round + 1;
        a.zero_wait_spin = 0;
        return;
      }
      if (action.wait_rounds == 0) {
        if (++a.zero_wait_spin > config_.max_zero_wait_spin) {
          result_.error = "agent spun on zero-length waits";
          a.finished = true;
          return;
        }
        const Observation obs{g_.degree(a.pos), std::nullopt,
                              round - a.start_round};
        a.mailbox.deliver_and_resume(obs);
        continue;
      }
      a.action_is_move = false;
      a.arrival_entry.reset();
      a.has_action = true;
      a.busy_until = sat_add(round, action.wait_rounds);
      a.zero_wait_spin = 0;
      return;
    }
  }

  MultiRunResult finish(std::uint64_t rounds) {
    result_.rounds_simulated = rounds;
    for (std::size_t i = 0; i < agents_.size(); ++i) {
      result_.moves[i] = agents_[i].moves;
      result_.final_pos[i] = agents_[i].pos;
    }
    return std::move(result_);
  }

  const Topo& g_;
  const MultiRunConfig& config_;
  MultiRunResult result_;
  PerAgent<AgentState, K> agents_{};
  PerAgent<Node, K> old_pos_{};
  PerAgent<std::uint8_t, K> moved_{};
};

/// Picks the agent-count specialization: the two-agent rendezvous path
/// (run_pair / run_anonymous) gets fixed-size storage.
template <class Topo>
MultiRunResult run_on(const Topo& g, const std::vector<AgentSpec>& agents,
                      const MultiRunConfig& config) {
  if (agents.size() == 2) {
    return MultiRunner<Topo, 2>(g, config, 2).run(agents);
  }
  return MultiRunner<Topo, 0>(g, config, agents.size()).run(agents);
}

}  // namespace

MultiRunResult run_multi(const ITopology& g,
                         const std::vector<AgentSpec>& agents,
                         const MultiRunConfig& config) {
  // The meeting scan only visits ordered pairs (i < j); normalize the
  // stop pair so callers may pass it in either order.
  MultiRunConfig normalized = config;
  if (normalized.stop_on_pair_a > normalized.stop_on_pair_b) {
    std::swap(normalized.stop_on_pair_a, normalized.stop_on_pair_b);
  }
  // One dispatch per run: an explicit Graph is simulated through its
  // final type, so degree/step inline into the event loop.
  if (const auto* explicit_graph = dynamic_cast<const graph::Graph*>(&g)) {
    return run_on(*explicit_graph, agents, normalized);
  }
  return run_on(g, agents, normalized);
}

}  // namespace rdv::sim
