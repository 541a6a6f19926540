#include "analysis/stics.hpp"

#include "cache/artifact_cache.hpp"

namespace rdv::analysis {

ClassifiedStic classify_stic(const views::ViewClasses& classes,
                             const views::AllPairsShrink& shrink,
                             const Stic& stic) {
  ClassifiedStic out;
  out.stic = stic;
  out.symmetric = classes.symmetric(stic.u, stic.v);
  out.shrink = shrink.at(stic.u, stic.v);
  out.feasible = !out.symmetric || stic.delay >= out.shrink;
  return out;
}

ClassifiedStic classify_stic(const graph::Graph& g, const Stic& stic) {
  // The convenience overload resolves the partition through the global
  // artifact cache: callers classifying many STICs of one graph without
  // precomputing classes no longer pay O(n^2 m) per call.
  return classify_stic(g, *cache::cached_view_classes(g), stic);
}

ClassifiedStic classify_stic(const graph::Graph& g,
                             const views::ViewClasses& classes,
                             const Stic& stic) {
  // The cached all-pairs table is the one Shrink source: computed once
  // per graph, then an O(n+m) fingerprint and a cache hit per STIC.
  return classify_stic(classes, *cache::cached_all_pairs_shrink(g), stic);
}

std::vector<Stic> enumerate_stics(const graph::Graph& g,
                                  std::uint64_t max_delay) {
  std::vector<Stic> stics;
  for (graph::Node u = 0; u < g.size(); ++u) {
    for (graph::Node v = 0; v < g.size(); ++v) {
      if (u == v) continue;
      for (std::uint64_t delay = 0; delay <= max_delay; ++delay) {
        stics.push_back(Stic{u, v, delay});
      }
    }
  }
  return stics;
}

}  // namespace rdv::analysis
