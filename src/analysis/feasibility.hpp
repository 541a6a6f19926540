#pragma once

#include <cstdint>
#include <vector>

#include "analysis/stics.hpp"
#include "sim/engine.hpp"

/// Cross-validation of the feasibility characterization
/// (Corollary 3.1) against actual simulations — experiment T2.
namespace rdv::analysis {

struct SticCheck {
  ClassifiedStic cls;
  sim::RunResult run;
  /// True when the simulation agrees with the characterization:
  /// a feasible STIC met within the round cap, an infeasible one did
  /// not meet (the cap cannot *prove* infeasibility — optimal_search
  /// can — but any meet on a predicted-infeasible STIC is a hard
  /// inconsistency).
  bool consistent = false;
};

/// Classifies one STIC from g's view classes and all-pairs Shrink table
/// and checks `run`, the program's run on it, against the prediction.
[[nodiscard]] SticCheck verify_stic(const views::ViewClasses& classes,
                                    const views::AllPairsShrink& shrink,
                                    const Stic& stic, sim::RunResult run);

/// Result of sweep::feasibility_sweep over one graph.
struct SweepSummary {
  std::vector<SticCheck> checks;
  std::uint64_t feasible = 0;
  std::uint64_t infeasible = 0;
  std::uint64_t inconsistent = 0;
};

}  // namespace rdv::analysis
