#include "sweep/sweep.hpp"

#include <memory>

#include "cache/artifact_cache.hpp"
#include "graph/automorphism.hpp"
#include "obs/metrics.hpp"
#include "views/refinement.hpp"
#include "views/shrink.hpp"

namespace rdv::sweep {

analysis::SweepSummary feasibility_sweep(const graph::Graph& g,
                                         std::uint64_t max_delay,
                                         const sim::AgentProgram& program,
                                         const sim::RunConfig& run_config,
                                         const SweepConfig& sweep_config) {
  // Resolved once per graph through the sweep's artifact cache:
  // repeated sweeps over the same graph (and concurrent sweeps on other
  // threads) share one partition refinement and one Shrink table.
  cache::ArtifactCache& cache = detail::effective_cache(sweep_config);
  const cache::GraphFingerprint fp = cache::fingerprint(g);
  const std::shared_ptr<const views::ViewClasses> classes =
      cache.view_classes(g, fp);
  const std::shared_ptr<const views::AllPairsShrink> shrink =
      cache.all_pairs_shrink(g, fp);
  const std::vector<analysis::Stic> stics =
      analysis::enumerate_stics(g, max_delay);
  std::vector<sim::RunResult> runs =
      sim::run_anonymous_all(g, program, stics, run_config);
  // Symmetric pairs in different automorphism orbits: their agents
  // perceive the same, yet no image serves one from the other's path.
  const std::vector<graph::Node> orbit = graph::automorphism_orbits(g);
  std::uint64_t unshared = 0;
  for (graph::Node u = 0; u < g.size(); ++u) {
    for (graph::Node v = u + 1; v < g.size(); ++v) {
      unshared += classes->symmetric(u, v) && orbit[u] != orbit[v] ? 1 : 0;
    }
  }
  static obs::Counter& unshared_pairs =
      obs::counter("sweep.unshared_symmetric_pairs");
  unshared_pairs.add(unshared);
  analysis::SweepSummary summary;
  summary.checks.reserve(stics.size());
  for (std::size_t i = 0; i < stics.size(); ++i) {
    summary.checks.push_back(analysis::verify_stic(*classes, *shrink, stics[i],
                                                   std::move(runs[i])));
  }
  for (const analysis::SticCheck& check : summary.checks) {
    if (check.cls.feasible) {
      ++summary.feasible;
    } else {
      ++summary.infeasible;
    }
    if (!check.consistent) ++summary.inconsistent;
  }
  return summary;
}

}  // namespace rdv::sweep
