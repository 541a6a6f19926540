#include "view_tree.hpp"

#include <sstream>

namespace rdv::views {
namespace {

void encode(const graph::Graph& g, graph::Node v, std::uint32_t depth,
            std::ostringstream& out) {
  out << '(' << g.degree(v) << ':';
  if (depth > 0) {
    for (const graph::HalfEdge& e : g.edges(v)) {
      out << '[' << e.rev_port << ']';
      encode(g, e.to, depth - 1, out);
    }
  }
  out << ')';
}

}  // namespace

std::string view_encoding(const graph::Graph& g, graph::Node v,
                          std::uint32_t depth) {
  std::ostringstream out;
  encode(g, v, depth, out);
  return out.str();
}

bool views_equal_to_depth(const graph::Graph& g, graph::Node u,
                          graph::Node v, std::uint32_t depth) {
  return view_encoding(g, u, depth) == view_encoding(g, v, depth);
}

}  // namespace rdv::views
