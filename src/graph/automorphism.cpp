#include "graph/automorphism.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace rdv::graph {

TreeWalk::TreeWalk(const Graph& g, Node root)
    : n_(g.size()),
      stride_(g.max_degree()),
      root_(root),
      deg_(n_),
      succ_(static_cast<std::size_t>(n_ + 1) * stride_, n_) {
  assert(root < n_);
  for (Node x = 0; x < n_; ++x) {
    deg_[x] = g.degree(x);
    for (Port p = 0; p < deg_[x]; ++p) {
      succ_[static_cast<std::size_t>(x) * stride_ + p] = g.step(x, p).to;
    }
  }
  std::vector<bool> seen(n_, false);
  seen[root] = true;
  std::vector<Node> queue{root};
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Node x = queue[head];
    for (Port p = 0; p < deg_[x]; ++p) {
      const Node y = successors(x)[p];
      if (seen[y]) continue;
      seen[y] = true;
      queue.push_back(y);
      child_.push_back(y);
      parent_.push_back(x);
      via_.push_back(p);
    }
  }
}

void TreeWalk::candidate(Node a, std::span<Node> map) const {
  assert(map.size() == n_ && a < n_);
  if (child_.size() + 1 < n_) std::fill(map.begin(), map.end(), n_);
  map[root_] = a;
  for (std::size_t i = 0; i < child_.size(); ++i) {
    map[child_[i]] = successors(map[parent_[i]])[via_[i]];
  }
}

bool TreeWalk::commutes(std::span<const Node> map) const {
  assert(map.size() == n_);
  for (Node x = 0; x < n_; ++x) {
    const Node y = map[x];
    if (y >= n_ || deg_[y] != deg_[x]) return false;
    const Node* sx = successors(x);
    const Node* sy = successors(y);
    for (Port q = 0; q < deg_[x]; ++q) {
      if (map[sx[q]] != sy[q]) return false;
    }
  }
  return true;
}

std::vector<Node> automorphism_orbits(const Graph& g) {
  const std::uint32_t n = g.size();
  std::vector<Node> orbit(n);
  std::iota(orbit.begin(), orbit.end(), Node{0});
  if (n == 0) return orbit;
  const TreeWalk tree(g, 0);
  std::vector<Node> map(n);
  for (Node a = 1; a < n; ++a) {
    if (!tree.automorphism(a, map)) continue;
    for (Node x = 0; x < n; ++x) orbit[x] = std::min(orbit[x], map[x]);
  }
  return orbit;
}

}  // namespace rdv::graph
