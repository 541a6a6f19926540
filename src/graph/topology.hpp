#pragma once

#include <cstdint>
#include <string>

/// Core vocabulary for port-labeled anonymous graphs (the paper's model,
/// Section 1): nodes are unlabeled; at a node of degree d the incident
/// edges carry distinct local port numbers 0..d-1; there is no coherence
/// between the two port numbers of an edge.
namespace rdv::graph {

/// Node handle. Nodes are anonymous in the model; indices exist only on
/// the simulator side (the adversary/observer), never visible to agents.
using Node = std::uint32_t;
/// Local port number at a node (0..degree-1).
using Port = std::uint32_t;

inline constexpr Node kNoNode = static_cast<Node>(-1);

/// Result of traversing one edge: the node reached and the port by which
/// it is entered (what an agent observes on arrival, Section 1: "when an
/// agent arrives at a node, it sees its degree and the port number by
/// which it enters").
struct Step {
  Node to;
  Port entry_port;

  friend bool operator==(const Step&, const Step&) = default;
};

/// Abstract navigable topology.
///
/// The simulation engine and every algorithm consume this interface, so
/// graphs may be explicit (`Graph`) or lazily materialized (e.g.
/// `QhatImplicitTopology` for Section 4's Q-hat at h = 2D, whose explicit
/// size 1 + 2(3^h - 1) is astronomically large while any bounded-time
/// walk touches only a small ball).
class ITopology {
 public:
  virtual ~ITopology() = default;

  /// Degree of node v.
  [[nodiscard]] virtual Port degree(Node v) const = 0;

  /// Traverse the edge with local port p (p < degree(v)) at node v.
  [[nodiscard]] virtual Step step(Node v, Port p) const = 0;

  /// step(v, p) when taking it changes nothing; otherwise a Step whose
  /// `to` is kNoNode. A lazily materialized topology creates nodes only
  /// in step, so the simulator runs ahead on peek and takes a step that
  /// would create one only once its run is known to reach that round.
  [[nodiscard]] virtual Step peek(Node v, Port p) const { return step(v, p); }

  /// Human-readable family name for tables and traces.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// succ(v, p) from the paper's Section 2: the neighbor of v across the
/// edge with port p at v.
[[nodiscard]] inline Node succ(const ITopology& g, Node v, Port p) {
  return g.step(v, p).to;
}

}  // namespace rdv::graph
