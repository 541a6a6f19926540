#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

/// Port-preserving automorphisms: bijections φ of the nodes with
/// deg φ(x) = deg x and φ(x·p) = φ(x)·p for every node x and port p.
/// In a simple graph φ keeps entry ports too (x·p enters y through q
/// exactly when y·q = x, so φ(x)·p enters φ(y) through q): an agent
/// started at φ(x) perceives, round by round, what one started at x
/// does, and occupies the image of its node.
///
/// On a connected graph φ is fixed by φ(r) for any root r, since
/// walking a BFS tree from r, φ(x·p) = φ(x)·p names every image. The
/// group is found by trying φ(r) = a for each node a: n tree walks,
/// O(n²Δ) with the commute checks.
namespace rdv::graph {

/// A BFS tree of g from one root, walked to build candidate maps.
class TreeWalk {
 public:
  TreeWalk(const Graph& g, Node root);

  /// Writes into map[0 .. n) the only map ψ with ψ(root) = a that can
  /// commute with every port step: ψ(x·p) = ψ(x)·p along the tree. A
  /// node the walk cannot place (a tree port missing at ψ(x), or no
  /// tree path from the root) maps to n.
  void candidate(Node a, std::span<Node> map) const;

  /// Whether `map` commutes with every port step, so that it is a
  /// port-preserving automorphism.
  [[nodiscard]] bool commutes(std::span<const Node> map) const;

  /// candidate(a, map), then commutes(map).
  bool automorphism(Node a, std::span<Node> map) const {
    candidate(a, map);
    return commutes(map);
  }

 private:
  [[nodiscard]] const Node* successors(Node x) const {
    return &succ_[static_cast<std::size_t>(x) * stride_];
  }

  std::uint32_t n_;
  Port stride_;
  Node root_;
  std::vector<Port> deg_;
  /// succ_[x * stride_ + p] = x·p; n where x has no port p, and row n
  /// (the place of every unplaced node) steps to n.
  std::vector<Node> succ_;
  /// Tree order after the root: node child_[i] is parent_[i]·via_[i].
  std::vector<Node> child_;
  std::vector<Node> parent_;
  std::vector<Port> via_;
};

/// orbit[x] = the least node of x's orbit under the port-preserving
/// automorphisms.
[[nodiscard]] std::vector<Node> automorphism_orbits(const Graph& g);

}  // namespace rdv::graph
