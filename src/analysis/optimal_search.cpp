#include "analysis/optimal_search.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <unordered_map>

#include "support/saturating.hpp"

namespace rdv::analysis {

using graph::Graph;
using graph::Node;
using graph::Port;

OptimalResult optimal_oblivious(const Graph& g, Node u, Node v,
                                std::uint64_t delay,
                                const OptimalSearchConfig& config) {
  const std::uint64_t n = g.size();
  const std::uint64_t alphabet = g.max_degree() + 1;  // wait + ports

  std::uint64_t buffer_space = 1;
  for (std::uint64_t i = 0; i < delay; ++i) {
    buffer_space = support::sat_mul(buffer_space, alphabet);
  }
  const std::uint64_t state_space =
      support::sat_mul(n * n, buffer_space);
  if (state_space > config.max_states) {
    throw std::invalid_argument(
        "optimal_oblivious: state space exceeds max_states");
  }

  // Action 0 = wait; action 1 + k = "port k mod degree".
  const auto apply = [&](Node pos, std::uint64_t action) -> Node {
    if (action == 0) return pos;
    const Port p = static_cast<Port>((action - 1) % g.degree(pos));
    return g.step(pos, p).to;
  };
  const auto encode = [&](Node p1, Node p2, std::uint64_t buf) {
    return (static_cast<std::uint64_t>(p1) * n + p2) * buffer_space + buf;
  };
  const auto decode_buffer_oldest_first = [&](std::uint64_t buf) {
    std::vector<ObliviousAction> actions(delay);
    for (std::uint64_t i = 0; i < delay; ++i) {
      actions[i] = buf % alphabet;
      buf /= alphabet;
    }
    return actions;
  };

  // Parent tracking for witness reconstruction (optional).
  constexpr std::uint64_t kSeed = static_cast<std::uint64_t>(-1);
  struct Parent {
    std::uint64_t from;
    ObliviousAction action;
  };
  std::unordered_map<std::uint64_t, Parent> parents;
  const auto build_witness = [&](std::uint64_t last_state,
                                 ObliviousAction last_action,
                                 bool transition) {
    std::vector<ObliviousAction> tail;
    if (transition) tail.push_back(last_action);
    std::uint64_t cursor = last_state;
    for (;;) {
      const Parent& p = parents.at(cursor);
      if (p.from == kSeed) break;
      tail.push_back(p.action);
      cursor = p.from;
    }
    std::reverse(tail.begin(), tail.end());
    std::vector<ObliviousAction> witness =
        decode_buffer_oldest_first(cursor % buffer_space);
    witness.insert(witness.end(), tail.begin(), tail.end());
    return witness;
  };

  std::vector<bool> visited(state_space, false);
  struct Entry {
    std::uint64_t id;
    std::uint64_t level;  // rounds from the later agent's start
  };
  std::deque<Entry> queue;
  OptimalResult result;
  bool horizon_hit = false;

  // Seed: every choice of the first `delay` actions. The earlier agent
  // has executed them; the later agent appears at v.
  std::uint64_t top_digit = 1;
  for (std::uint64_t i = 0; i + 1 < delay; ++i) top_digit *= alphabet;
  for (std::uint64_t buf = 0; buf < buffer_space; ++buf) {
    Node p1 = u;
    for (const ObliviousAction a : decode_buffer_oldest_first(buf)) {
      p1 = apply(p1, a);
    }
    ++result.states_explored;
    if (p1 == v) {
      result.outcome = OptimalOutcome::kMet;
      result.rounds = 0;
      if (config.want_witness) {
        result.witness = decode_buffer_oldest_first(buf);
      }
      return result;
    }
    const std::uint64_t id = encode(p1, v, buf);
    if (!visited[id]) {
      visited[id] = true;
      if (config.want_witness) parents.emplace(id, Parent{kSeed, 0});
      queue.push_back(Entry{id, 0});
    }
  }

  while (!queue.empty()) {
    const Entry e = queue.front();
    queue.pop_front();
    if (e.level >= config.horizon) {
      horizon_hit = true;
      continue;
    }
    const std::uint64_t buf = e.id % buffer_space;
    const Node p2 = static_cast<Node>((e.id / buffer_space) % n);
    const Node p1 = static_cast<Node>(e.id / buffer_space / n);
    const std::uint64_t oldest = delay == 0 ? 0 : buf % alphabet;
    const std::uint64_t shifted = delay == 0 ? 0 : buf / alphabet;
    for (std::uint64_t a = 0; a < alphabet; ++a) {
      const Node p1n = apply(p1, a);
      const Node p2n = delay == 0 ? apply(p2, a) : apply(p2, oldest);
      const std::uint64_t bufn = delay == 0 ? 0 : shifted + a * top_digit;
      ++result.states_explored;
      if (p1n == p2n) {
        result.outcome = OptimalOutcome::kMet;
        result.rounds = e.level + 1;
        if (config.want_witness) {
          result.witness = build_witness(e.id, a, /*transition=*/true);
        }
        return result;
      }
      const std::uint64_t id = encode(p1n, p2n, bufn);
      if (!visited[id]) {
        visited[id] = true;
        if (config.want_witness) parents.emplace(id, Parent{e.id, a});
        queue.push_back(Entry{id, e.level + 1});
      }
    }
  }

  result.outcome = horizon_hit ? OptimalOutcome::kHorizonExceeded
                               : OptimalOutcome::kProvenInfeasible;
  return result;
}

SticOptimal optimal_for_stic(const Graph& g, const Stic& stic,
                             const OptimalSearchConfig& config,
                             cache::ArtifactCache* cache) {
  SticOptimal out;
  out.cls = classify_stic(*cache::cached_view_classes(g, cache),
                          *cache::cached_all_pairs_shrink(g, cache), stic);
  out.search = optimal_oblivious(g, stic.u, stic.v, stic.delay, config);
  switch (out.search.outcome) {
    case OptimalOutcome::kMet:
      out.consistent = out.cls.feasible;
      break;
    case OptimalOutcome::kProvenInfeasible:
      out.consistent = !out.cls.symmetric || !out.cls.feasible;
      break;
    case OptimalOutcome::kHorizonExceeded:
      out.consistent = true;
      break;
  }
  return out;
}

sim::AgentProgram oblivious_program(std::vector<ObliviousAction> actions) {
  return [actions = std::move(actions)](
             sim::Mailbox& mb, sim::Observation) -> sim::Proc {
    return [](sim::Mailbox& mb2,
              std::vector<ObliviousAction> script) -> sim::Proc {
      for (const ObliviousAction a : script) {
        if (a == 0) {
          co_await mb2.wait(1);
        } else {
          const graph::Port p = static_cast<graph::Port>(
              (a - 1) % mb2.last().degree);
          co_await mb2.move(p);
        }
      }
    }(mb, actions);
  };
}

}  // namespace rdv::analysis
