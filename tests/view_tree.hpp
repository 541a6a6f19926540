#pragma once

#include <cstdint>
#include <string>

#include "graph/graph.hpp"

/// Explicit truncated views V(v, G) (Section 2 / Yamashita–Kameda).
///
/// Test support: the refinement oracle (views/refinement.hpp) is the
/// production symmetry test, and views_test cross-validates it against
/// these explicit views.
namespace rdv::views {

/// Canonical serialization of the view from v truncated at `depth`
/// edges. Two nodes have equal depth-D views iff their encodings are
/// equal. Encoding: "(d:" + for each port p in order, the reverse port
/// and the child encoding + ")". Cost is Theta((max degree)^depth) — use
/// small depths.
[[nodiscard]] std::string view_encoding(const graph::Graph& g,
                                        graph::Node v, std::uint32_t depth);

/// True iff the depth-D views of u and v are equal.
[[nodiscard]] bool views_equal_to_depth(const graph::Graph& g,
                                        graph::Node u, graph::Node v,
                                        std::uint32_t depth);

}  // namespace rdv::views
