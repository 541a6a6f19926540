#include "analysis/feasibility.hpp"

#include <utility>

namespace rdv::analysis {

SticCheck verify_stic(const views::ViewClasses& classes,
                      const views::AllPairsShrink& shrink, const Stic& stic,
                      sim::RunResult run) {
  SticCheck check;
  check.cls = classify_stic(classes, shrink, stic);
  check.run = std::move(run);
  check.consistent =
      check.run.ok() && (check.run.met == check.cls.feasible);
  return check;
}

}  // namespace rdv::analysis
