#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/topology.hpp"

namespace rdv::graph::families {

/// Non-materialized twins of the structured generators: adjacency is
/// computed, never stored (unlike `QhatImplicitTopology`, which interns
/// nodes and memoizes resolved edges), so the census scale is bounded by
/// arithmetic, not memory. Each class
/// matches its explicit generator's port convention EXACTLY (the test
/// suite cross-checks step/degree node by node at small sizes) and adds
/// two closed forms the implicit census runs on:
///
///  * distance(u, v) — the hop metric, in O(1)/O(dim);
///  * distance_histogram() — counts by distance from any one source
///    (all three families are vertex-transitive, so the histogram is
///    the same at every node and a census over all n^2 ordered pairs is
///    n times one histogram).
///
/// On these families every distinct pair is symmetric and translations
/// realize every approach, so Shrink(u, v) == dist(u, v) — pinned
/// against views::shrink_all_pairs on the explicit twin in tests —
/// which is what lets the implicit census classify millions of STICs
/// without ever materializing the graph.

/// families::oriented_ring(n) without the adjacency vectors: port 0 =
/// clockwise (enters the successor by port 1), port 1 = counter-
/// clockwise. Any n >= 3.
class OrientedRingTopology final : public ITopology {
 public:
  explicit OrientedRingTopology(std::uint32_t n);

  [[nodiscard]] Port degree(Node v) const override;
  [[nodiscard]] Step step(Node v, Port p) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::uint32_t size() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t edge_count() const noexcept { return n_; }
  [[nodiscard]] std::uint32_t distance(Node u, Node v) const;
  [[nodiscard]] std::vector<std::uint64_t> distance_histogram() const;

 private:
  std::uint32_t n_;
};

/// families::oriented_torus(w, h) without the adjacency vectors: ports
/// 0 = East, 1 = South, 2 = West, 3 = North, globally oriented; nodes
/// are y * w + x. Any w, h >= 3.
class OrientedTorusTopology final : public ITopology {
 public:
  OrientedTorusTopology(std::uint32_t w, std::uint32_t h);

  [[nodiscard]] Port degree(Node v) const override;
  [[nodiscard]] Step step(Node v, Port p) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::uint32_t size() const noexcept { return w_ * h_; }
  [[nodiscard]] std::uint64_t edge_count() const noexcept {
    return 2ull * w_ * h_;
  }
  [[nodiscard]] std::uint32_t distance(Node u, Node v) const;
  [[nodiscard]] std::vector<std::uint64_t> distance_histogram() const;

 private:
  std::uint32_t w_;
  std::uint32_t h_;
};

/// families::hypercube(dim) without the adjacency vectors: port i flips
/// bit i (and is port i on both sides). dim in [1, 25] — n and the
/// binomial histogram stay comfortably inside uint32/uint64, well past
/// the explicit generator's dim <= 20.
class HypercubeTopology final : public ITopology {
 public:
  explicit HypercubeTopology(std::uint32_t dim);

  [[nodiscard]] Port degree(Node v) const override;
  [[nodiscard]] Step step(Node v, Port p) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::uint32_t size() const noexcept { return 1u << dim_; }
  [[nodiscard]] std::uint64_t edge_count() const noexcept {
    return (static_cast<std::uint64_t>(size()) * dim_) / 2;
  }
  [[nodiscard]] std::uint32_t distance(Node u, Node v) const;
  [[nodiscard]] std::vector<std::uint64_t> distance_histogram() const;

 private:
  std::uint32_t dim_;
};

}  // namespace rdv::graph::families
