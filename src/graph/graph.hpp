#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/topology.hpp"

namespace rdv::graph {

/// One directed half of an undirected edge as stored at a node: the port
/// index is implicit (position in the node's adjacency vector).
struct HalfEdge {
  Node to;        ///< Neighbor across this edge.
  Port rev_port;  ///< Port number of this edge at the neighbor's side.

  friend bool operator==(const HalfEdge&, const HalfEdge&) = default;
};

/// Explicit immutable port-labeled graph.
///
/// Invariants (checked by validate(), established by GraphBuilder):
///  * simple: no self-loops, no parallel edges;
///  * connected;
///  * reciprocal ports: following port p from v and then the reported
///    reverse port leads back to v via port p.
class Graph final : public ITopology {
 public:
  Graph(std::vector<std::vector<HalfEdge>> adjacency, std::string name);

  /// Number of nodes (the paper's "size" n).
  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(adjacency_.size());
  }

  /// Number of undirected edges.
  [[nodiscard]] std::uint64_t edge_count() const noexcept;

  /// Maximum degree over all nodes.
  [[nodiscard]] Port max_degree() const noexcept;

  // Defined inline: the simulator calls these once per agent move, and
  // on a `const Graph&` (the class is final) they need no virtual call.
  [[nodiscard]] Port degree(Node v) const override {
    assert(v < adjacency_.size());
    return static_cast<Port>(adjacency_[v].size());
  }
  [[nodiscard]] Step step(Node v, Port p) const override {
    assert(v < adjacency_.size());
    assert(p < adjacency_[v].size());
    const HalfEdge& e = adjacency_[v][p];
    return Step{e.to, e.rev_port};
  }
  [[nodiscard]] std::string name() const override { return name_; }

  /// All half-edges at v, indexed by port.
  [[nodiscard]] std::span<const HalfEdge> edges(Node v) const;

  /// Checks all structural invariants; returns an empty string when
  /// valid, otherwise a description of the first violation.
  [[nodiscard]] std::string validate() const;

 private:
  std::vector<std::vector<HalfEdge>> adjacency_;
  std::string name_;
};

/// BFS distances from `source` (hop metric). Unreachable nodes get
/// kUnreachable.
inline constexpr std::uint32_t kUnreachable = static_cast<std::uint32_t>(-1);
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(const Graph& g,
                                                       Node source);

/// Distance between two nodes (BFS); kUnreachable if disconnected.
[[nodiscard]] std::uint32_t distance(const Graph& g, Node a, Node b);

/// True if the graph is connected (every model graph must be).
[[nodiscard]] bool is_connected(const Graph& g);

}  // namespace rdv::graph
