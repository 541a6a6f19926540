#include "sim/multi_engine.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <sstream>
#include <type_traits>

#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "support/saturating.hpp"

namespace rdv::sim {
namespace {

using graph::ITopology;
using graph::Node;
using graph::Port;
using support::kRoundInfinity;
using support::sat_add;

/// Process-wide simulator series, bumped once per run in finish() —
/// never per move, so the hot loop stays free of atomics.
struct SimMetrics {
  obs::Counter& runs = obs::counter("sim.runs");
  obs::Counter& moves = obs::counter("sim.moves");
  obs::Counter& rounds = obs::counter("sim.rounds");
  obs::Counter& resumes = obs::counter("sim.resumes");
  obs::Counter& segments = obs::counter("sim.segments");
};

SimMetrics& sim_metrics() {
  static SimMetrics metrics;
  return metrics;
}

struct AgentState {
  Mailbox mailbox;
  std::optional<Proc> proc;
  Node pos = graph::kNoNode;
  Node start_node = graph::kNoNode;
  std::uint64_t start_round = 0;
  /// Round the current move or wait completes; kRoundInfinity before
  /// the start and after the program ends.
  std::uint64_t busy_until = kRoundInfinity;
  Node move_target = graph::kNoNode;
  Port move_port = 0;
  /// Entry port the next observation reports: set when the action is
  /// chosen, so delivering it is a plain copy.
  std::optional<Port> arrival_entry;
  bool started = false;
  bool finished = false;
  bool action_is_move = false;
  /// Walking mailbox.segment(); the move completing at busy_until is
  /// its step `segment_step`.
  bool in_segment = false;
  std::uint32_t segment_step = 0;
  /// Round of the agent's next resume: the end of its segment, or of
  /// its move or wait. Set when the action is chosen.
  std::uint64_t resume_at = kRoundInfinity;
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
///
/// Rounds in which no agent needs its coroutine — every unfinished
/// agent is mid-segment or waiting past the round, and nobody spawns —
/// run in a lockstep burst: move, check crossings, choose each
/// segment's next port, check meetings, next round. The general loop
/// (spawns, resumes, event scheduling) runs only at the rounds between
/// bursts.
template <class Topo, std::size_t K>
class MultiRunner {
 public:
  MultiRunner(const Topo& g, const MultiRunConfig& config, std::size_t k)
      : g_(g), config_(config) {
    if constexpr (K == 0) {
      agents_.resize(k);
      old_pos_.resize(k);
      moved_.resize(k);
      walkers_.resize(k);
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

    unstarted_ = k;
    std::uint64_t round = 0;
    for (;;) {
      // Spawn agents whose starting round arrived; once all have, the
      // scan is skipped for the rest of the run.
      for (std::size_t i = 0; unstarted_ > 0 && i < k; ++i) {
        AgentState& a = agents_[i];
        if (!a.started && a.start_round == round) {
          a.started = true;
          --unstarted_;
          a.pos = a.start_node;
          result_.trace.record(round, static_cast<std::uint32_t>(i), a.pos,
                               kNoPort);
          const Observation initial{g_.degree(a.pos), std::nullopt, 0};
          a.mailbox.set_initial(initial);
          a.proc.emplace(specs[i].program(a.mailbox, initial));
          ++resumes_;
          a.proc->start();
          collect(i, round);
          if (!result_.ok()) return finish(round);
        }
      }

      if (meetings_end_run(round)) return finish(round);

      // Termination, the next event round, and the horizon: the first
      // round at which some agent must be resumed or spawned.
      bool everything_done = unstarted_ == 0;
      std::uint64_t next = kRoundInfinity;
      std::uint64_t horizon = kRoundInfinity;
      for (std::size_t i = 0; i < k; ++i) {
        const AgentState& a = agents_[i];
        if (!a.started) {
          next = std::min(next, a.start_round);
          horizon = std::min(horizon, a.start_round);
        } else if (!a.finished) {
          everything_done = false;
          next = std::min(next, a.busy_until);
          horizon = std::min(horizon, a.resume_at);
        }
      }
      if (everything_done) {
        result_.programs_finished = true;
        return finish(round);
      }

      // Advance to the next event, or stop at the cap.
      if (next > config_.max_rounds || next == kRoundInfinity) {
        return finish(config_.max_rounds);
      }
      if (next < horizon) {
        // Lockstep burst over the rounds before the horizon; its last
        // round's meeting check is the general loop's above.
        const std::uint64_t last = std::min(horizon - 1, config_.max_rounds);
        const std::uint64_t ended = burst(next, last);
        if (ended != kNever) return finish(ended);
        round = last;
        continue;
      }
      round = next;
      if (!advance(round)) return finish(round);
    }
  }

 private:
  /// Records this round's first meetings; true when the run ends here
  /// (gathering, or the configured pair met).
  bool meetings_end_run(std::uint64_t round) {
    const std::size_t k = agents_.size();
    bool all_same = true;
    bool stop_pair_met = false;
    for (std::size_t i = 0; i < k; ++i) {
      if (!agents_[i].started) continue;
      if (agents_[i].pos != agents_[0].pos) all_same = false;
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
    if (unstarted_ == 0 && all_same) {
      result_.gathered = true;
      result_.gather_round_absolute = round;
      std::uint64_t last_start = 0;
      for (const AgentState& a : agents_) {
        last_start = std::max(last_start, a.start_round);
      }
      result_.gather_from_last_start = round - last_start;
      return true;
    }
    return stop_pair_met;
  }

  /// Completes the actions due at `round`: moves land, swaps count as
  /// crossings, then each due agent (in index order) takes its
  /// segment's next step or is resumed. False on a program error.
  bool advance(std::uint64_t round) {
    const std::size_t k = agents_.size();
    for (std::size_t i = 0; i < k; ++i) {
      old_pos_[i] = agents_[i].pos;
      moved_[i] = 0;
    }
    for (std::size_t i = 0; i < k; ++i) {
      AgentState& a = agents_[i];
      if (!due(a, round)) continue;
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
      if (!due(a, round)) continue;
      if (a.in_segment) {
        const Segment& s = a.mailbox.segment();
        if (s.entries != nullptr) s.entries[a.segment_step] = *a.arrival_entry;
        if (++a.segment_step < s.length) {
          if (!segment_step(i, round)) return false;
          continue;
        }
        a.in_segment = false;
      }
      Observation obs;
      obs.degree = g_.degree(a.pos);
      obs.entry_port = a.arrival_entry;
      obs.clock = round - a.start_round;
      ++resumes_;
      a.mailbox.deliver_and_resume(obs);
      collect(i, round);
      if (!result_.ok()) return false;
    }
    return true;
  }

  /// An agent walking a segment through a burst, copied out of its
  /// AgentState for the burst's length.
  struct Walker {
    Segment segment;
    std::uint32_t agent;
    std::uint32_t step;  ///< The step in flight.
    Node from;
    Node pos;
    Node target;
    Port port;
    Port entry;
  };

  /// The lockstep burst: rounds first..last, in which every due agent
  /// is mid-segment and no segment ends. Each round moves the walkers,
  /// counts crossings, chooses each walker's next step (in agent
  /// order, with the per-move port check) and, except at `last`,
  /// checks meetings. Returns the round the run ended at (a program
  /// error, or a meeting that ends the run), or kNever.
  std::uint64_t burst(std::uint64_t first, std::uint64_t last) {
    std::size_t n = 0;
    for (const AgentState& a : agents_) n += a.in_segment ? 1 : 0;
    // A lone walker gets a one-element local array: with its count fixed
    // the compiler keeps it in registers, which halves its cost per move.
    if (n == 1) {
      std::array<Walker, 1> walker;
      return burst_over(walker, 1, first, last);
    }
    return burst_over(walkers_, n, first, last);
  }

  template <class Walkers>
  std::uint64_t burst_over(Walkers& walkers, std::size_t n,
                           std::uint64_t first, std::uint64_t last) {
    const std::size_t k = agents_.size();
    for (std::size_t i = 0, j = 0; i < k; ++i) {
      const AgentState& a = agents_[i];
      if (!a.in_segment) continue;
      walkers[j++] = Walker{a.mailbox.segment(),
                            static_cast<std::uint32_t>(i),
                            a.segment_step,
                            a.pos,
                            a.pos,
                            a.move_target,
                            a.move_port,
                            *a.arrival_entry};
    }
    std::uint64_t ended = kNever;
    std::uint64_t round = first;
    for (;; ++round) {
      for (std::size_t j = 0; j < n; ++j) {
        Walker& w = walkers[j];
        w.from = w.pos;
        w.pos = w.target;
        result_.trace.record(round, w.agent, w.pos, w.port);
      }
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t l = j + 1; l < n; ++l) {
          const Walker& a = walkers[j];
          const Walker& b = walkers[l];
          if (a.pos == b.from && b.pos == a.from && a.pos != b.pos) {
            ++result_.edge_crossings;
          }
        }
      }
      bool stepped = true;
      for (std::size_t j = 0; j < n; ++j) {
        Walker& w = walkers[j];
        const Segment& seg = w.segment;
        if (seg.entries != nullptr) seg.entries[w.step] = w.entry;
        const std::uint32_t step = ++w.step;
        const Port degree = g_.degree(w.pos);
        const Port port = segment_port(seg, step, w.entry, degree);
        if (seg.degrees != nullptr) seg.degrees[step] = degree;
        if (port >= degree) {
          port_error(w.agent, port, degree);
          stepped = false;
          break;
        }
        const graph::Step next = g_.step(w.pos, port);
        w.target = next.to;
        w.port = port;
        w.entry = next.entry_port;
      }
      if (!stepped) {
        ended = round;
        break;
      }
      if (round == last) break;
      // Only a walker can have come to share a node; the full scan
      // runs when one did. Walker positions reach agents_ only then, so
      // the scan of the others never reads a position just stored.
      bool alone = true;
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t l = j + 1; l < n; ++l) {
          alone &= walkers[j].pos != walkers[l].pos;
        }
        for (std::size_t i = 0; i < k; ++i) {
          const AgentState& a = agents_[i];
          alone &= a.in_segment || !a.started || a.pos != walkers[j].pos;
        }
      }
      if (!alone) {
        for (std::size_t j = 0; j < n; ++j) {
          agents_[walkers[j].agent].pos = walkers[j].pos;
        }
        if (meetings_end_run(round)) {
          ended = round;
          break;
        }
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      const Walker& w = walkers[j];
      AgentState& a = agents_[w.agent];
      a.pos = w.pos;
      a.moves += round - first + 1;
      a.segment_step = w.step;
      a.move_target = w.target;
      a.move_port = w.port;
      a.arrival_entry = w.entry;
      a.busy_until = round + 1;
    }
    return ended;
  }

  /// Reports the model's port-range error for agent i and stops it.
  void port_error(std::size_t i, Port p, Port degree) {
    std::ostringstream err;
    err << "agent " << i << " used port " << p << " at a degree-" << degree
        << " node";
    result_.error = err.str();
    agents_[i].finished = true;
  }

  static bool due(const AgentState& a, std::uint64_t round) {
    return a.busy_until == round;
  }

  /// Takes port p from agent i's node this round, or reports the
  /// model's port-range error. The check runs when the move is chosen,
  /// whether by the coroutine or by a segment.
  bool take_port(std::size_t i, Port p, Port degree, std::uint64_t round) {
    AgentState& a = agents_[i];
    if (p >= degree) {
      port_error(i, p, degree);
      return false;
    }
    const graph::Step s = g_.step(a.pos, p);
    a.move_target = s.to;
    a.move_port = p;
    a.arrival_entry = s.entry_port;
    a.action_is_move = true;
    a.busy_until = round + 1;
    if (!a.in_segment) a.resume_at = a.busy_until;
    a.zero_wait_spin = 0;
    return true;
  }

  /// The port of step `step` of segment s, leaving a node of the given
  /// degree that the previous step entered by `entry`.
  static Port segment_port(const Segment& s, std::uint32_t step, Port entry,
                           Port degree) {
    switch (s.kind) {
      case Segment::Kind::kUxs:
        return step == 0 ? 0
                         : static_cast<Port>((entry + s.terms[step - 1]) %
                                             degree);
      case Segment::Kind::kPorts:
        return s.ports[step];
      case Segment::Kind::kRetrace:
        break;
    }
    return s.ports[s.length - 1 - step];
  }

  /// Chooses and takes step `segment_step` of agent i's segment.
  bool segment_step(std::size_t i, std::uint64_t round) {
    AgentState& a = agents_[i];
    const Segment& s = a.mailbox.segment();
    const Port degree = g_.degree(a.pos);
    const Port port =
        segment_port(s, a.segment_step, a.arrival_entry.value_or(0), degree);
    if (s.degrees != nullptr) s.degrees[a.segment_step] = degree;
    return take_port(i, port, degree, round);
  }

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
        take_port(i, action.port, g_.degree(a.pos), round);
        return;
      }
      if (action.kind == Action::Kind::kSegment) {
        ++segments_;
        if (a.mailbox.segment().length > 0) {
          a.in_segment = true;
          a.segment_step = 0;
          a.resume_at = round + a.mailbox.segment().length;
          segment_step(i, round);
          return;
        }
        // An empty segment is a zero-length wait.
      } else if (action.wait_rounds > 0) {
        a.action_is_move = false;
        a.arrival_entry.reset();
        a.busy_until = sat_add(round, action.wait_rounds);
        a.resume_at = a.busy_until;
        a.zero_wait_spin = 0;
        return;
      }
      if (++a.zero_wait_spin > config_.max_zero_wait_spin) {
        result_.error = "agent spun on zero-length waits";
        a.finished = true;
        return;
      }
      const Observation obs{g_.degree(a.pos), std::nullopt,
                            round - a.start_round};
      ++resumes_;
      a.mailbox.deliver_and_resume(obs);
    }
  }

  MultiRunResult finish(std::uint64_t rounds) {
    result_.rounds_simulated = rounds;
    std::uint64_t moves = 0;
    for (std::size_t i = 0; i < agents_.size(); ++i) {
      result_.moves[i] = agents_[i].moves;
      result_.final_pos[i] = agents_[i].pos;
      moves += agents_[i].moves;
    }
    SimMetrics& metrics = sim_metrics();
    metrics.runs.add();
    metrics.moves.add(moves);
    metrics.rounds.add(rounds);
    metrics.resumes.add(resumes_);
    metrics.segments.add(segments_);
    return std::move(result_);
  }

  const Topo& g_;
  const MultiRunConfig& config_;
  MultiRunResult result_;
  PerAgent<AgentState, K> agents_{};
  PerAgent<Node, K> old_pos_{};
  PerAgent<std::uint8_t, K> moved_{};
  PerAgent<Walker, K> walkers_{};
  std::size_t unstarted_ = 0;
  /// Coroutine resumes and segments issued this run, for SimMetrics.
  std::uint64_t resumes_ = 0;
  std::uint64_t segments_ = 0;
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
