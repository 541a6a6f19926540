#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

/// Shrink(u, v) — Definition 3.1: the smallest distance between
/// alpha(u) and alpha(v) over all port sequences alpha (applying the
/// SAME outgoing ports at both nodes). The feasibility characterization
/// (Corollary 3.1) is: a STIC [(u,v), delta] with symmetric u, v is
/// feasible iff delta >= Shrink(u, v).
namespace rdv::views {

struct ShrinkResult {
  /// The Shrink value. On a connected graph this is finite (the empty
  /// sequence already witnesses dist(u, v)); when u and v lie in
  /// different components every reachable pair stays split across them,
  /// so shrink == graph::kUnreachable, the witness is empty, and
  /// closest_u/closest_v are graph::kNoNode.
  std::uint32_t shrink = 0;
  /// A shortest-in-BFS-order port sequence achieving it (empty when
  /// unreachable).
  std::vector<graph::Port> witness;
  /// The closest reachable pair (alpha(u), alpha(v)); graph::kNoNode
  /// when unreachable.
  graph::Node closest_u = graph::kNoNode;
  graph::Node closest_v = graph::kNoNode;
  /// Number of ordered pairs explored by the product BFS (cost metric).
  std::uint64_t pairs_explored = 0;
};

/// Exact Shrink by BFS over the pair space {(alpha(u), alpha(v))}. A
/// port p is applicable at a pair (a, b) when p < min(deg(a), deg(b)) —
/// along symmetric pairs degrees always agree, so nothing is lost.
/// Cost: O(n^2 * max_degree) time, O(n^2) space.
[[nodiscard]] ShrinkResult shrink_with_witness(const graph::Graph& g,
                                               graph::Node u,
                                               graph::Node v);

/// Just the value.
[[nodiscard]] std::uint32_t shrink(const graph::Graph& g, graph::Node u,
                                   graph::Node v);

/// Shrink for every ordered pair of one graph, as a flat n x n table.
struct AllPairsShrink {
  std::uint32_t n = 0;
  /// values[u * n + v] = Shrink(u, v). Symmetric (Shrink(u, v) ==
  /// Shrink(v, u): swapping coordinates maps product walks onto product
  /// walks and dist is symmetric); diagonal is 0; cross-component pairs
  /// hold graph::kUnreachable.
  std::vector<std::uint32_t> values;
  /// Unordered pairs assigned a finite Shrink, diagonal included:
  /// every pair within one component (cost metric, the batched analog
  /// of ShrinkResult::pairs_explored).
  std::uint64_t pairs_explored = 0;

  [[nodiscard]] std::uint32_t at(graph::Node u, graph::Node v) const {
    return values[static_cast<std::size_t>(u) * n + v];
  }
};

/// Batched all-pairs Shrink. Two paths fill the same table.
///
/// Pair orbits: taken when the graph's port-preserving automorphisms
/// (node bijections psi with psi(x·p) = psi(x)·p for every x and p) act
/// transitively on its nodes. Shrink is invariant under them, and each
/// is fixed by the image of a single node, so the ordered pairs fall
/// into exactly n orbits, those of (r, x) for r = 0.
///  - The test: every node has the same degree D and a BFS tree from r
///    reaches all n nodes. For each neighbour a = r·p, the tree walk
///    phi(r) = a, phi(x·q) = phi(x)·q along tree edges
///    (graph::TreeWalk) gives the only candidate map phi_a; it must
///    commute with every port step at every node. Commuting makes phi_a an automorphism: its image is
///    closed under every port step, hence is the whole connected graph,
///    so phi_a is onto and thus a bijection. Cost: O(D^2 * n).
///  - Why the D maps suffice: by induction on BFS distance, a node x
///    reached from its tree parent y through port p has some
///    automorphism psi with psi(r) = y, and psi o phi_{r·p} maps r to
///    psi(r·p) = y·p = x. So every node is the image of r, and the tree
///    walk from any root image a yields the automorphism psi_a.
///  - The table: port p steps the orbit of (r, x) to that of
///    (r, phi_{r·p}^-1(x·p)), an n-node graph with D*n arcs; its
///    level-ordered backward closure from dist(r, ·) gives
///    S(x) = Shrink(r, x), and row a is Shrink(a, psi_a(x)) = S(x).
///    Cost: O(n^2) for the rows, no BFS distance row, no pull layer.
/// The oriented rings, tori and hypercubes take this path; random
/// graphs, trees, double trees, scrambled rings, disconnected graphs
/// and one-view-class graphs whose tree-walk maps do not commute do
/// not.
///
/// Level sweep, for every other graph: a level-ordered backward closure
/// over the unordered pair space. Level d assigns Shrink(u, v) = d to
/// every unassigned pair that reaches a pair at distance d.
///  1. Level 0 closes from the diagonal first and needs no distances.
///  2. Only sources whose row still holds an unassigned pair run a BFS
///     row; those pairs are counting-sorted by distance to seed levels
///     d >= 1. On a graph where level 0 closes every pair, no BFS runs.
///  3. Each level closes one BFS layer at a time, marking assigned
///     pairs in a bitset: the seed layer pushes through the reverse
///     product adjacency, a later layer that is a large share of the
///     unassigned pairs pulls instead (each unassigned pair checks its
///     successors), as in direction-optimizing BFS.
/// Pushing traverses each product edge once, and a pull layer checks at
/// most max_degree successors per unassigned pair only while its
/// frontier is a fixed share of those pairs, so the successor checks
/// also total O(n^2 * max_degree): the price of ONE per-pair product
/// BFS. shrink_with_witness remains the witness-reconstruction fallback
/// and the oracle both paths are verified against.
[[nodiscard]] AllPairsShrink shrink_all_pairs(const graph::Graph& g);

/// The views.shrink_pair_bfs and views.shrink_all_pairs_computes
/// registry counters (shrink_with_witness and shrink_all_pairs calls),
/// read by the perfbench harness. shrink_all_pairs also counts its
/// effort as views.shrink_distance_rows (BFS distance rows run),
/// views.shrink_pull_layers (closure layers that pulled instead of
/// pushing; both level sweep only) and views.shrink_transitive_tables
/// (tables filled on the pair-orbit path).
[[nodiscard]] std::uint64_t shrink_pair_bfs_count() noexcept;
[[nodiscard]] std::uint64_t shrink_all_pairs_compute_count() noexcept;

}  // namespace rdv::views
