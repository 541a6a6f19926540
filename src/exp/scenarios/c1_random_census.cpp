// C1 — random-graph STIC census (ROADMAP "streaming million-STIC
// census engine"). Classifies EVERY ordered STIC of seeded random
// connected graphs via Corollary 3.1 — no simulation, so the census
// scales to far larger graphs than the T-series sweeps: feasibility
// needs only the view partition (once per graph) and the BATCHED
// all-pairs Shrink table (views::shrink_all_pairs — one closure over
// the pair space, never a per-pair product BFS), both resolved through the
// artifact cache and therefore persisted by the disk store (a warm
// census run recomputes nothing). One graph is one case; cases
// parallelize on the pool, and each case returns its Shrink histogram
// as a detail record for the binary result log instead of
// materializing per-pair tables.
#include <algorithm>
#include <memory>

#include "cache/artifact_cache.hpp"
#include "exp/scenarios/scenarios.hpp"
#include "graph/families/families.hpp"
#include "store/result_log.hpp"
#include "views/refinement.hpp"
#include "views/shrink.hpp"

namespace rdv::exp::scenarios {
namespace {

namespace families = rdv::graph::families;
using graph::Graph;
using graph::Node;

}  // namespace

void register_c1(Registry& registry) {
  Experiment e;
  e.id = "c1_random_census";
  e.title = "C1 (census): random-graph STIC census via Corollary 3.1";
  e.summary =
      "classify every ordered STIC of seeded random connected graphs "
      "(symmetry + batched all-pairs Shrink through the cache; no "
      "simulation)";
  e.axes = {
      "graph: random_connected(n, extra, seed) x delays 0..max_delay",
      "smoke: n<=7, delay<=1; quick: +n<=10, delay<=2; full: +n<=20; "
      "census: +n<=1024, delay<=3",
      "per-graph Shrink histograms go into the result log "
      "(--result-log) in case order"};
  e.headers = {"graph",     "n",       "edges",    "classes",
               "pairs",     "symmetric", "STICs",  "feasible",
               "infeasible", "max Shrink"};
  e.tags = {"table", "census", "feasibility", "random", "streaming"};
  e.cases = [](const ExpContext& ctx) {
    auto graphs = std::make_shared<std::vector<Graph>>();
    graphs->push_back(families::random_connected(6, 2, 21));
    graphs->push_back(families::random_connected(7, 4, 22));
    if (!ctx.smoke()) {
      graphs->push_back(families::random_connected(8, 5, 23));
      graphs->push_back(families::random_connected(10, 8, 24));
    }
    if (ctx.full()) {
      graphs->push_back(families::random_connected(12, 10, 25));
      graphs->push_back(families::random_connected(16, 16, 26));
      graphs->push_back(families::random_connected(20, 24, 27));
    }
    if (ctx.census()) {
      // The batched kernel prices the whole table at ONE product BFS,
      // and the worklist refiner (ISSUE 8) retires the old O(n^2 m)
      // partition bound, so the census climbs past n = 10^3.
      graphs->push_back(families::random_connected(24, 30, 28));
      graphs->push_back(families::random_connected(32, 48, 29));
      graphs->push_back(families::random_connected(40, 70, 30));
      graphs->push_back(families::random_connected(100, 160, 31));
      graphs->push_back(families::random_connected(200, 340, 32));
      graphs->push_back(families::random_connected(256, 440, 33));
      graphs->push_back(families::random_connected(512, 900, 34));
      graphs->push_back(families::random_connected(1024, 1792, 35));
    }
    const std::uint64_t max_delay =
        ctx.smoke() ? 1 : (ctx.census() ? 3 : 2);
    std::vector<CaseFn> fns;
    fns.reserve(graphs->size());
    for (std::size_t i = 0; i < graphs->size(); ++i) {
      fns.push_back([graphs, i, max_delay](const ExpContext& run_ctx) {
        const Graph& g = (*graphs)[i];
        const auto classes =
            cache::cached_view_classes(g, run_ctx.cache());
        // The quotient is what an anonymous agent can learn about the
        // graph; its class count summarizes the census arena (and keeps
        // the artifact kinds flowing through cache + store).
        const auto quotient = cache::cached_quotient(g, run_ctx.cache());
        const auto all = cache::cached_all_pairs_shrink(g, run_ctx.cache());
        std::uint64_t pairs = 0;
        std::uint64_t symmetric_pairs = 0;
        std::uint64_t feasible = 0;
        std::uint32_t max_shrink = 0;
        // Shrink histogram over symmetric ordered pairs: the compact
        // detail record (a census row per VALUE, not per pair —
        // millions of STICs classify into a handful of rows).
        std::vector<std::uint64_t> histogram;
        for (Node u = 0; u < g.size(); ++u) {
          for (Node v = 0; v < g.size(); ++v) {
            if (u == v) continue;
            ++pairs;
            const bool sym = classes->symmetric(u, v);
            const std::uint32_t s = all->at(u, v);
            max_shrink = std::max(max_shrink, s);
            if (sym) {
              ++symmetric_pairs;
              if (s >= histogram.size()) histogram.resize(s + 1, 0);
              ++histogram[s];
            }
            // Corollary 3.1 per delay, counted arithmetically: delta in
            // [0, max_delay] is feasible iff nonsymmetric or delta >= s.
            if (!sym) {
              feasible += max_delay + 1;
            } else if (s <= max_delay) {
              feasible += max_delay + 1 - s;
            }
          }
        }
        store::ResultRecord detail;
        detail.experiment_id = "c1_random_census/" + g.name();
        detail.scale = scale_name(run_ctx.scale);
        detail.items_total = pairs;
        detail.headers = {"shrink", "symmetric ordered pairs"};
        for (std::uint32_t s = 0; s < histogram.size(); ++s) {
          if (histogram[s] == 0) continue;
          detail.rows.push_back(
              {std::to_string(s), std::to_string(histogram[s])});
        }
        detail.rows.push_back(
            {"nonsymmetric", std::to_string(pairs - symmetric_pairs)});
        detail.items_produced = detail.rows.size();
        const std::uint64_t stics = pairs * (max_delay + 1);
        CaseOutput out({g.name(),
                        std::to_string(g.size()),
                        std::to_string(g.edge_count()),
                        std::to_string(quotient->class_count()),
                        std::to_string(pairs),
                        std::to_string(symmetric_pairs),
                        std::to_string(stics),
                        std::to_string(feasible),
                        std::to_string(stics - feasible),
                        std::to_string(max_shrink)});
        out.detail = std::move(detail);
        return out;
      });
    }
    return fns;
  };
  e.notes = [](const ExpContext& ctx) {
    return std::vector<std::string>{
        std::string("Census of every ordered STIC with delays 0..") +
        std::to_string(ctx.smoke() ? 1 : (ctx.census() ? 3 : 2)) +
        "; feasibility by Corollary 3.1 (no simulation), Shrink from "
        "the batched all-pairs kernel."};
  };
  registry.add(std::move(e));
}

}  // namespace rdv::exp::scenarios
