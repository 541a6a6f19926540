#include "analysis/feasibility.hpp"

namespace rdv::analysis {

SticCheck verify_stic(const graph::Graph& g,
                      const views::ViewClasses& classes,
                      const views::AllPairsShrink& shrink, const Stic& stic,
                      const sim::AgentProgram& program,
                      const sim::RunConfig& config) {
  SticCheck check;
  check.cls = classify_stic(classes, shrink, stic);
  check.run = sim::run_anonymous(g, program, stic.u, stic.v, stic.delay,
                                 config);
  check.consistent =
      check.run.ok() && (check.run.met == check.cls.feasible);
  return check;
}

}  // namespace rdv::analysis
