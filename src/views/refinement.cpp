#include "views/refinement.hpp"

#include <algorithm>
#include <map>

#include "obs/metrics.hpp"
#include "views/refinement_worklist.hpp"

namespace rdv::views {

using graph::Graph;
using graph::Node;
using graph::Port;

namespace {

// Registered at load: CI asserts it reads 0 on runs that never bump it.
obs::Counter& naive_runs = obs::counter("views.refine_naive");

}  // namespace

ViewClasses compute_view_classes(const Graph& g) {
  return compute_view_classes_worklist(g);
}

ViewClasses compute_view_classes_naive(const Graph& g) {
  naive_runs.add();
  const std::uint32_t n = g.size();
  ViewClasses out;
  out.class_of.assign(n, 0);

  // Initial partition: by degree.
  {
    std::map<Port, std::uint32_t> ids;
    for (Node v = 0; v < n; ++v) {
      auto [it, _] = ids.try_emplace(g.degree(v),
                                     static_cast<std::uint32_t>(ids.size()));
      out.class_of[v] = it->second;
    }
    out.class_count = static_cast<std::uint32_t>(ids.size());
  }

  // Refine: the signature of v is its class plus, per port in order, the
  // (neighbor class, reverse port) pair. Iterate to a fixpoint; one
  // extra confirming round is implicit in the "count unchanged" exit.
  using Signature = std::vector<std::uint64_t>;
  for (;;) {
    ++out.rounds;
    std::map<Signature, std::uint32_t> ids;
    std::vector<std::uint32_t> next(n);
    for (Node v = 0; v < n; ++v) {
      Signature sig;
      sig.reserve(1 + g.degree(v));
      sig.push_back(out.class_of[v]);
      for (const graph::HalfEdge& e : g.edges(v)) {
        sig.push_back((static_cast<std::uint64_t>(out.class_of[e.to]) << 32) |
                      e.rev_port);
      }
      auto [it, _] =
          ids.try_emplace(std::move(sig), static_cast<std::uint32_t>(ids.size()));
      next[v] = it->second;
    }
    const auto count = static_cast<std::uint32_t>(ids.size());
    if (count == out.class_count) break;  // partition stable
    out.class_of = std::move(next);
    out.class_count = count;
  }
  return out;
}

bool symmetric(const Graph& g, Node u, Node v) {
  return compute_view_classes(g).symmetric(u, v);
}

std::uint32_t view_distance(const Graph& g, Node u, Node v) {
  // Depth-k view equality is exactly equality after k refinement
  // rounds starting from the degree partition.
  const std::uint32_t n = g.size();
  std::vector<std::uint32_t> classes(n);
  {
    std::map<Port, std::uint32_t> ids;
    for (Node w = 0; w < n; ++w) {
      auto [it, _] = ids.try_emplace(g.degree(w),
                                     static_cast<std::uint32_t>(ids.size()));
      classes[w] = it->second;
    }
  }
  if (classes[u] != classes[v]) return 0;
  std::uint32_t count =
      *std::max_element(classes.begin(), classes.end()) + 1;
  // One signature buffer and one next-classes buffer, reused across
  // every depth: the map copies a key only when the signature is new,
  // so steady-state depths allocate nothing per node.
  using Signature = std::vector<std::uint64_t>;
  Signature sig;
  std::vector<std::uint32_t> next(n);
  for (std::uint32_t depth = 1;; ++depth) {
    std::map<Signature, std::uint32_t> ids;
    for (Node w = 0; w < n; ++w) {
      sig.clear();
      sig.push_back(classes[w]);
      for (const graph::HalfEdge& e : g.edges(w)) {
        sig.push_back((static_cast<std::uint64_t>(classes[e.to]) << 32) |
                      e.rev_port);
      }
      auto [it, _] =
          ids.try_emplace(sig, static_cast<std::uint32_t>(ids.size()));
      next[w] = it->second;
    }
    if (next[u] != next[v]) return depth;
    const auto new_count = static_cast<std::uint32_t>(ids.size());
    if (new_count == count) return kViewsEqual;  // stable: symmetric
    classes.swap(next);
    count = new_count;
  }
}

std::vector<std::pair<Node, Node>> symmetric_pairs(
    const Graph& g, const ViewClasses& classes) {
  std::vector<std::pair<Node, Node>> pairs;
  for (Node u = 0; u < g.size(); ++u) {
    for (Node v = u + 1; v < g.size(); ++v) {
      if (classes.symmetric(u, v)) pairs.emplace_back(u, v);
    }
  }
  return pairs;
}

std::vector<std::pair<Node, Node>> symmetric_pairs(const Graph& g) {
  return symmetric_pairs(g, compute_view_classes(g));
}

}  // namespace rdv::views
