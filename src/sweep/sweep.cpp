#include "sweep/sweep.hpp"

#include <memory>

#include "cache/artifact_cache.hpp"
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
  // threads) share one partition refinement and one Shrink table. The
  // shared_ptrs keep the artifacts alive past eviction.
  cache::ArtifactCache& cache = detail::effective_cache(sweep_config);
  const cache::GraphFingerprint fp = cache::fingerprint(g);
  const std::shared_ptr<const views::ViewClasses> classes =
      cache.view_classes(g, fp);
  const std::shared_ptr<const views::AllPairsShrink> shrink =
      cache.all_pairs_shrink(g, fp);
  const std::vector<analysis::Stic> stics =
      analysis::enumerate_stics(g, max_delay);
  analysis::SweepSummary summary;
  summary.checks = sweep_map<analysis::SticCheck>(
      stics.size(),
      [&](std::size_t i) {
        return analysis::verify_stic(g, *classes, *shrink, stics[i], program,
                                     run_config);
      },
      sweep_config);
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
