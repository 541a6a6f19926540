#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sim/engine.hpp"
#include "views/refinement.hpp"
#include "views/shrink.hpp"

/// Space-time initial configurations (STICs) and their classification.
namespace rdv::analysis {

/// STIC [(u, v), delta], the simulator's (sim/engine.hpp).
using Stic = sim::Stic;

/// Classification per Corollary 3.1.
struct ClassifiedStic {
  Stic stic;
  bool symmetric = false;
  /// Shrink(u, v), read from the cached all-pairs table; meaningful for
  /// the characterization when symmetric (for nonsymmetric pairs it is
  /// still the min same-sequence distance, reported for diagnostics;
  /// graph::kUnreachable across components).
  std::uint32_t shrink = 0;
  /// Corollary 3.1: feasible iff nonsymmetric, or delta >= Shrink.
  bool feasible = false;
};

/// Classify one STIC against the graph's view classes and all-pairs
/// Shrink table: the one classification every overload below runs.
[[nodiscard]] ClassifiedStic classify_stic(const views::ViewClasses& classes,
                                           const views::AllPairsShrink& shrink,
                                           const Stic& stic);

/// Classify one STIC (symmetry and Shrink resolved through the global
/// artifact cache).
[[nodiscard]] ClassifiedStic classify_stic(const graph::Graph& g,
                                           const Stic& stic);

/// Classify against precomputed view classes; Shrink comes from the
/// global cache, a fingerprint of g per call. Sweeps resolve both
/// artifacts once and call the overload above.
[[nodiscard]] ClassifiedStic classify_stic(const graph::Graph& g,
                                           const views::ViewClasses& classes,
                                           const Stic& stic);

/// All ordered STICs (u != v) with delays 0..max_delay.
[[nodiscard]] std::vector<Stic> enumerate_stics(const graph::Graph& g,
                                                std::uint64_t max_delay);

}  // namespace rdv::analysis
