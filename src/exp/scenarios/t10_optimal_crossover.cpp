// T10 — the feasibility crossover, measured exactly.
// Corollary 3.1 predicts a sharp threshold at delta = Shrink(u, v) for
// symmetric pairs: below it NO algorithm meets, at it rendezvous is
// possible. The exhaustive searcher certifies both sides and emits the
// optimal witness string at the threshold, which is replayed through
// the simulation engine as an end-to-end consistency check. Each
// (graph, pair) is one case; the Shrink pair-BFS resolves through the
// artifact cache.
#include <memory>

#include "analysis/optimal_search.hpp"
#include "cache/artifact_cache.hpp"
#include "exp/scenarios/scenarios.hpp"
#include "graph/families/families.hpp"
#include "sim/engine.hpp"

namespace rdv::exp::scenarios {
namespace {

namespace families = rdv::graph::families;
using graph::Graph;
using graph::Node;

struct Case {
  Graph g;
  Node u, v;
};

std::string render_witness(
    const std::vector<analysis::ObliviousAction>& witness) {
  std::string out;
  for (const auto a : witness) {
    if (!out.empty()) out += ' ';
    if (a == 0) {
      out += 'w';
    } else {
      out += 'p';
      out += std::to_string(a - 1);
    }
  }
  return out.empty() ? "(empty)" : out;
}

std::vector<std::string> case_row(const Case& c, const ExpContext& ctx) {
  const std::uint32_t s =
      cache::cached_all_pairs_shrink(c.g, ctx.cache())->at(c.u, c.v);
  // Below the threshold: certified impossible.
  std::string below = "(S=0)";
  if (s >= 1) {
    analysis::OptimalSearchConfig config;
    config.horizon = 1u << 16;
    const auto r =
        analysis::optimal_oblivious(c.g, c.u, c.v, s - 1, config);
    below = r.outcome == analysis::OptimalOutcome::kProvenInfeasible
                ? "proven infeasible"
                : "UNEXPECTED";
  }
  // At the threshold: optimal time + witness + replay.
  analysis::OptimalSearchConfig config;
  config.horizon = 1u << 12;
  config.want_witness = true;
  const auto r = analysis::optimal_oblivious(c.g, c.u, c.v, s, config);
  std::string at = "UNEXPECTED";
  std::string witness = "-";
  std::string replay = "-";
  if (r.outcome == analysis::OptimalOutcome::kMet) {
    at = "met@" + std::to_string(r.rounds);
    witness = render_witness(r.witness);
    sim::RunConfig run_config;
    run_config.max_rounds = s + r.rounds + 8;
    const auto run = sim::run_anonymous(
        c.g, analysis::oblivious_program(r.witness), c.u, c.v, s,
        run_config);
    replay = (run.met && run.meet_from_later_start == r.rounds) ? "yes"
                                                                : "NO";
  }
  return {c.g.name(),
          std::to_string(c.u) + "," + std::to_string(c.v),
          std::to_string(s),
          below,
          at,
          witness,
          replay};
}

}  // namespace

void register_t10(Registry& registry) {
  Experiment e;
  e.id = "t10_optimal_crossover";
  e.title = "T10: the delta = Shrink crossover, certified on both sides";
  e.summary =
      "exhaustive certificates on both sides of the delta = Shrink "
      "threshold, with optimal witnesses replayed through the engine";
  e.axes = {"(graph, symmetric pair), certified at delta = Shrink-1 and "
            "delta = Shrink",
            "smoke: 2 pairs; quick: 5; full: +hypercube(3) +ring(8)"};
  e.headers = {"graph",  "pair",    "Shrink", "delta=S-1",
               "delta=S optimal", "witness", "replay ok"};
  e.tags = {"table", "feasibility", "optimal"};
  e.cases = [](const ExpContext& ctx) {
    auto cases = std::make_shared<std::vector<Case>>();
    cases->push_back({families::two_node_graph(), 0, 1});
    cases->push_back({families::oriented_ring(5), 0, 2});
    if (!ctx.smoke()) {
      cases->push_back({families::oriented_ring(6), 0, 3});
      cases->push_back({families::oriented_torus(3, 3), 0, 4});
      Graph g = families::symmetric_double_tree(2, 2);
      const Node m = families::double_tree_mirror(g, 5);
      cases->push_back({std::move(g), 5, m});
    }
    if (ctx.full()) {
      cases->push_back({families::hypercube(3), 0, 7});
      cases->push_back({families::oriented_ring(8), 0, 4});
    }
    std::vector<CaseFn> fns;
    fns.reserve(cases->size());
    for (std::size_t i = 0; i < cases->size(); ++i) {
      fns.push_back([cases, i](const ExpContext& run_ctx) {
        return case_row((*cases)[i], run_ctx);
      });
    }
    return fns;
  };
  registry.add(std::move(e));
}

}  // namespace rdv::exp::scenarios
