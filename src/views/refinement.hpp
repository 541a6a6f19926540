#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

/// Symmetry detection via partition refinement.
///
/// Two nodes are symmetric (Section 2) when their views — the infinite
/// trees of port-coded paths of Yamashita–Kameda — are equal. Views are
/// equal iff they agree to depth n-1, and the classes of iterated
/// degree/port refinement stabilize to exactly the view-equivalence
/// classes, so symmetry is decidable without materializing views.
///
/// Two engines compute the partition:
/// - compute_view_classes (production): the smaller-half worklist
///   refinement in refinement_worklist.hpp, O(m log n);
/// - compute_view_classes_naive (oracle): the original synchronous
///   re-refinement, O(n^2 * m) worst case, kept as the independent
///   reference the worklist engine is tested byte-identical against.
namespace rdv::views {

struct ViewClasses {
  /// class_of[v] = stable class id; ids are dense, ordered by first
  /// occurrence in node order (so they are canonical for a given graph
  /// REGARDLESS of the computing engine — the canonical contract every
  /// codec byte, cached artifact, and quotient consumer relies on).
  std::vector<std::uint32_t> class_of;
  std::uint32_t class_count = 0;
  /// Refinement-effort diagnostic of the engine that produced the
  /// partition: worklist waves until the splitter queue drained for the
  /// production engine, synchronous re-refinement rounds for the naive
  /// oracle. NOT part of the canonical contract above (the two engines
  /// may legitimately differ here); only ever read by humans and
  /// histograms.
  std::uint32_t rounds = 0;

  [[nodiscard]] bool symmetric(graph::Node u, graph::Node v) const {
    return class_of[u] == class_of[v];
  }
};

/// Computes the stable view-equivalence partition (worklist engine).
[[nodiscard]] ViewClasses compute_view_classes(const graph::Graph& g);

/// The original synchronous O(n^2 * m) refinement, retained verbatim as
/// the test oracle: every round rebuilds every node's full signature.
/// class_of/class_count are byte-identical to compute_view_classes.
/// Counts its runs as views.refine_naive: CI asserts it stays ZERO on
/// census runs, since nothing on a production path may fall back to the
/// O(n^2 m) engine.
[[nodiscard]] ViewClasses compute_view_classes_naive(const graph::Graph& g);

/// Convenience: are u and v symmetric in g?
[[nodiscard]] bool symmetric(const graph::Graph& g, graph::Node u,
                             graph::Node v);

/// All symmetric pairs (u, v) with u < v.
[[nodiscard]] std::vector<std::pair<graph::Node, graph::Node>>
symmetric_pairs(const graph::Graph& g);

/// Same, against a precomputed (possibly cached) partition.
[[nodiscard]] std::vector<std::pair<graph::Node, graph::Node>>
symmetric_pairs(const graph::Graph& g, const ViewClasses& classes);

/// Sentinel for view_distance on symmetric pairs.
inline constexpr std::uint32_t kViewsEqual = static_cast<std::uint32_t>(-1);

/// The smallest depth at which the views of u and v differ (0 = their
/// degrees already differ), or kViewsEqual when symmetric. Quantifies
/// how much exploration an agent needs before its observations can
/// distinguish the two starting positions.
[[nodiscard]] std::uint32_t view_distance(const graph::Graph& g,
                                          graph::Node u, graph::Node v);

}  // namespace rdv::views
