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
  // One path per start node serves every STIC: the runs are resolved
  // together, long windows fanned out on the sweep's pool (a graph's
  // few paths would otherwise bound the wall on one thread).
  const sim::FanOut fan_out = [&](std::size_t n,
                                  const std::function<void(std::size_t)>& fn) {
    (void)sweep_map<char>(
        n,
        [&](std::size_t i) {
          fn(i);
          return char{0};
        },
        sweep_config);
  };
  std::vector<sim::PairStarts> starts;
  starts.reserve(stics.size());
  for (const analysis::Stic& stic : stics) {
    starts.push_back({stic.u, stic.v, stic.delay});
  }
  std::vector<sim::RunResult> runs =
      sim::run_anonymous_all(g, program, starts, run_config, fan_out);
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
