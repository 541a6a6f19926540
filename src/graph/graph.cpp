#include "graph/graph.hpp"

#include <cassert>
#include <queue>
#include <sstream>

namespace rdv::graph {

Graph::Graph(std::vector<std::vector<HalfEdge>> adjacency, std::string name)
    : adjacency_(std::move(adjacency)), name_(std::move(name)) {}

std::uint64_t Graph::edge_count() const noexcept {
  std::uint64_t half = 0;
  for (const auto& adj : adjacency_) half += adj.size();
  return half / 2;
}

Port Graph::max_degree() const noexcept {
  std::size_t d = 0;
  for (const auto& adj : adjacency_) d = std::max(d, adj.size());
  return static_cast<Port>(d);
}

std::span<const HalfEdge> Graph::edges(Node v) const {
  assert(v < adjacency_.size());
  return adjacency_[v];
}

std::string Graph::validate() const {
  std::ostringstream err;
  const auto n = adjacency_.size();
  if (n == 0) return "graph has no nodes";
  for (std::size_t v = 0; v < n; ++v) {
    std::vector<bool> seen_neighbor(n, false);
    for (std::size_t p = 0; p < adjacency_[v].size(); ++p) {
      const HalfEdge& e = adjacency_[v][p];
      if (e.to >= n) {
        err << "node " << v << " port " << p << " points past node count";
        return err.str();
      }
      if (e.to == v) {
        err << "self-loop at node " << v << " port " << p;
        return err.str();
      }
      if (seen_neighbor[e.to]) {
        err << "parallel edge between " << v << " and " << e.to;
        return err.str();
      }
      seen_neighbor[e.to] = true;
      if (e.rev_port >= adjacency_[e.to].size()) {
        err << "node " << v << " port " << p << " reverse port "
            << e.rev_port << " out of range at node " << e.to;
        return err.str();
      }
      const HalfEdge& back = adjacency_[e.to][e.rev_port];
      if (back.to != v || back.rev_port != p) {
        err << "non-reciprocal ports on edge " << v << "/" << p << " -> "
            << e.to << "/" << e.rev_port;
        return err.str();
      }
    }
  }
  if (!is_connected(*this)) return "graph is not connected";
  return {};
}

std::vector<std::uint32_t> bfs_distances(const Graph& g, Node source) {
  std::vector<std::uint32_t> dist(g.size(), kUnreachable);
  std::queue<Node> queue;
  dist[source] = 0;
  queue.push(source);
  while (!queue.empty()) {
    const Node v = queue.front();
    queue.pop();
    for (const HalfEdge& e : g.edges(v)) {
      if (dist[e.to] == kUnreachable) {
        dist[e.to] = dist[v] + 1;
        queue.push(e.to);
      }
    }
  }
  return dist;
}

std::uint32_t distance(const Graph& g, Node a, Node b) {
  return bfs_distances(g, a)[b];
}

bool is_connected(const Graph& g) {
  const auto dist = bfs_distances(g, 0);
  for (std::uint32_t d : dist) {
    if (d == kUnreachable) return false;
  }
  return true;
}

}  // namespace rdv::graph
