#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/families/qhat.hpp"
#include "graph/topology.hpp"

namespace rdv::graph::families {

/// Lazily materialized Q-hat-h (Section 4).
///
/// Explicit Q-hat-h has 1 + 2(3^h - 1) nodes — far beyond memory at the
/// theorem's regime h = 2D. Any T-round walk, however, touches at most
/// 2T + 1 nodes, so this topology interns nodes on demand: a node is its
/// root-relative direction string; leaf-to-leaf edges are resolved
/// combinatorially (rank/unrank of leaf paths in lexicographic order)
/// through the exact same `leaf_link` wiring rule as the explicit
/// generator, which the test suite cross-checks node by node.
///
/// Node ids are handed out in order of first materialization. Every
/// resolved edge is memoized in both directions (port-labeled edges are
/// symmetric), so a step already taken, or taken backwards, is one load;
/// resolving a new edge allocates nothing beyond amortized table growth.
///
/// The hash index from path to node is built only when a lookup can
/// meet an existing node. While every node so far was interned by the
/// tree edge down from its parent, that edge's memo holds the node in
/// both directions, so an unresolved child edge always leads to a new
/// node, which takes the next id without a lookup. The first leaf link,
/// memo-missing parent step or `node_at` builds the index from every
/// node so far, in id order; from then on every intern looks up first.
/// A materialized node costs 48 bytes, its packed path (16) and its
/// four memo entries (32), before vector growth slack; once the index
/// exists it adds 8-16 bytes at load <= 1/2.
///
/// Interning and the memo are caches behind `const`: even `const` calls
/// (`step`, `node_at`) mutate them, so an instance must not be shared
/// between threads. Build one per thread (T6 and perfbench build one
/// per k).
///
/// Supports h in [2, 39] (leaf ranks fit in uint64: 3^38 < 2^63).
class QhatImplicitTopology final : public ITopology {
 public:
  explicit QhatImplicitTopology(std::uint32_t h);

  [[nodiscard]] Port degree(Node v) const override;
  [[nodiscard]] Step step(Node v, Port p) const override {
    assert(v < adj_.size());
    assert(p < 4);
    const Step memo = adj_[v][p];
    return memo.to != kNoNode ? memo : resolve(v, p);
  }
  /// The memoized step, or kNoNode before the edge is resolved.
  [[nodiscard]] Step peek(Node v, Port p) const override {
    assert(v < adj_.size());
    assert(p < 4);
    return adj_[v][p];
  }
  [[nodiscard]] std::string name() const override;

  /// The root r of the construction (node id 0).
  [[nodiscard]] Node root() const noexcept { return 0; }
  [[nodiscard]] std::uint32_t height() const noexcept { return h_; }

  /// Root-relative direction string of a materialized node.
  [[nodiscard]] std::vector<Dir> path_of(Node v) const;

  /// Node for a direction string (materializing it if needed). The
  /// string must be a valid simple tree path of length <= h over the
  /// four directions; anything else throws std::invalid_argument.
  [[nodiscard]] Node node_at(std::span<const Dir> path) const;

  /// Number of nodes materialized so far (observability for tests and
  /// the T6 bench).
  [[nodiscard]] std::size_t materialized() const noexcept {
    return paths_.size();
  }

  /// 1-based lexicographic rank of a leaf path among leaves with the
  /// same final direction. Exposed for tests.
  [[nodiscard]] std::uint64_t leaf_rank(std::span<const Dir> path) const;

  /// Inverse of leaf_rank: the leaf path with the given final direction
  /// and 1-based rank. Exposed for tests.
  [[nodiscard]] std::vector<Dir> leaf_unrank(Dir last, std::uint64_t rank)
      const;

 private:
  static constexpr std::uint32_t kMaxHeight = 39;

  /// A root-relative path, 2 bits per direction: directions 0..31 in
  /// `lo`, 32..38 in the low bits of `hi`, the length in hi's top byte.
  struct PackedPath {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    [[nodiscard]] std::uint32_t size() const noexcept {
      return static_cast<std::uint32_t>(hi >> 56);
    }
    [[nodiscard]] Dir at(std::uint32_t i) const noexcept {
      return static_cast<Dir>(((i < 32 ? lo : hi) >> (2 * (i % 32))) & 3);
    }
    [[nodiscard]] PackedPath pushed(Dir d) const noexcept;
    [[nodiscard]] PackedPath popped() const noexcept;
    [[nodiscard]] std::uint64_t hash() const noexcept;

    friend bool operator==(const PackedPath&, const PackedPath&) = default;
  };

  [[nodiscard]] static PackedPath pack(std::span<const Dir> path);
  /// Writes the path's directions to the front of `out`.
  static void unpack(const PackedPath& path, std::span<Dir> out);

  /// Memo miss: resolves the edge by the tree / leaf-link rule, interns
  /// its far end and records both directions of the edge.
  [[nodiscard]] Step resolve(Node v, Port p) const;
  /// Gives `path`, which must not be materialized yet, the next id. It
  /// does not touch the index, so only an index-free topology may call
  /// it from outside `intern`.
  [[nodiscard]] Node append(const PackedPath& path) const;
  /// The node of `path`, materialized if new; builds the index first if
  /// there is none.
  [[nodiscard]] Node intern(const PackedPath& path) const;
  void rehash(std::size_t slot_count) const;
  /// leaf_unrank into the first h entries of `out`.
  void unrank_into(Dir last, std::uint64_t rank, std::span<Dir> out) const;
  [[nodiscard]] std::uint64_t completions(std::uint32_t remaining, Dir at,
                                          Dir last) const;

  std::uint32_t h_;
  std::uint64_t x_;  // leaves per type = 3^(h-1)
  // completions_[r][c][l]: number of valid direction strings of length r
  // appended after a position holding c such that the final direction is
  // l (r = 0: c == l). "Valid" = never stepping back toward the parent.
  std::vector<std::array<std::array<std::uint64_t, 4>, 4>> dp_;
  // Interning tables and the edge memo; mutated on traversal, hence
  // mutable (the topology is logically immutable — both are caches).
  // paths_[v] is node v's path; slots_ is an open-addressing (linear
  // probing) index of node ids by path, kNoNode when empty, its size a
  // power of two, and is itself empty until the first lookup; adj_[v][p]
  // is the memoized step(v, p), kNoNode `to` until resolved.
  mutable std::vector<PackedPath> paths_;
  mutable std::vector<Node> slots_;
  mutable std::vector<std::array<Step, 4>> adj_;
};

}  // namespace rdv::graph::families
