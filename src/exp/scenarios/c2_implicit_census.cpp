// C2 — implicit-family STIC census (ROADMAP "streaming million-STIC
// census engine", thousands-of-nodes leg). On the oriented ring, the
// oriented torus, and the hypercube a common port sequence applies the
// SAME translation to both endpoints (global orientation resp. XOR),
// so the pair's distance is invariant and Shrink(u, v) == dist(u, v)
// exactly — pinned against views::shrink_all_pairs on the explicit
// twins in tests. All three families are vertex-transitive with
// port-preserving translations, so every ordered pair is symmetric and
// the whole n^2-pair census folds to ONE closed-form distance
// histogram per family (graph/families/implicit.hpp) — no adjacency is
// ever materialized, which is how the census reaches n in the
// thousands. Each case returns its histogram as a detail record for the
// result log.
#include <algorithm>
#include <memory>

#include "exp/scenarios/scenarios.hpp"
#include "graph/families/implicit.hpp"
#include "store/result_log.hpp"

namespace rdv::exp::scenarios {
namespace {

namespace families = rdv::graph::families;

struct FamilySummary {
  std::string name;
  std::uint64_t n = 0;
  std::uint64_t edges = 0;
  std::vector<std::uint64_t> histogram;  // per-source counts by distance
};

/// Which implicit family a case instantiates (the topology itself is
/// built inside the kernel — case generation stays trivial).
struct Spec {
  enum class Kind { kRing, kTorus, kHypercube } kind;
  std::uint32_t a = 0;  // ring n / torus w / hypercube dim
  std::uint32_t b = 0;  // torus h
};

FamilySummary summarize(const Spec& spec) {
  FamilySummary s;
  switch (spec.kind) {
    case Spec::Kind::kRing: {
      const families::OrientedRingTopology t(spec.a);
      s = {t.name(), t.size(), t.edge_count(), t.distance_histogram()};
      break;
    }
    case Spec::Kind::kTorus: {
      const families::OrientedTorusTopology t(spec.a, spec.b);
      s = {t.name(), t.size(), t.edge_count(), t.distance_histogram()};
      break;
    }
    case Spec::Kind::kHypercube: {
      const families::HypercubeTopology t(spec.a);
      s = {t.name(), t.size(), t.edge_count(), t.distance_histogram()};
      break;
    }
  }
  return s;
}

}  // namespace

void register_c2(Registry& registry) {
  Experiment e;
  e.id = "c2_implicit_census";
  e.title = "C2 (census): implicit-family STIC census (Shrink == dist)";
  e.summary =
      "classify every ordered STIC of ring/torus/hypercube at implicit "
      "scale via closed-form distance histograms (Shrink == dist, all "
      "pairs symmetric)";
  e.axes = {
      "family: implicit ring(n) / torus(w x h) / hypercube(dim) x "
      "delays 0..max_delay",
      "smoke: n<=16; quick: +n<=64; full: +n<=256; census: +n<=4096",
      "per-family Shrink histograms go into the result log "
      "(--result-log) in case order"};
  e.headers = {"family",   "n",        "edges",      "pairs",
               "STICs",    "feasible", "infeasible", "max Shrink"};
  e.tags = {"table", "census", "feasibility", "implicit", "streaming"};
  e.cases = [](const ExpContext& ctx) {
    auto specs = std::make_shared<std::vector<Spec>>();
    specs->push_back({Spec::Kind::kRing, 16, 0});
    specs->push_back({Spec::Kind::kHypercube, 4, 0});
    if (!ctx.smoke()) {
      specs->push_back({Spec::Kind::kRing, 64, 0});
      specs->push_back({Spec::Kind::kTorus, 8, 8});
      specs->push_back({Spec::Kind::kHypercube, 6, 0});
    }
    if (ctx.full()) {
      specs->push_back({Spec::Kind::kRing, 256, 0});
      specs->push_back({Spec::Kind::kTorus, 16, 16});
      specs->push_back({Spec::Kind::kHypercube, 8, 0});
    }
    if (ctx.census()) {
      specs->push_back({Spec::Kind::kRing, 1024, 0});
      specs->push_back({Spec::Kind::kRing, 4096, 0});
      specs->push_back({Spec::Kind::kTorus, 48, 48});
      specs->push_back({Spec::Kind::kHypercube, 12, 0});
    }
    const std::uint64_t max_delay =
        ctx.smoke() ? 1 : (ctx.census() ? 3 : 2);
    std::vector<CaseFn> fns;
    fns.reserve(specs->size());
    for (std::size_t i = 0; i < specs->size(); ++i) {
      fns.push_back([specs, i, max_delay](const ExpContext& run_ctx) {
        const FamilySummary s = summarize((*specs)[i]);
        const std::uint64_t pairs = s.n * (s.n - 1);
        // Vertex transitivity: the histogram holds for every source, so
        // ordered-pair counts are n * counts[d]; every pair is
        // symmetric, so Corollary 3.1 charges each pair at Shrink ==
        // dist exactly.
        std::uint64_t feasible = 0;
        std::uint32_t max_shrink = 0;
        for (std::uint32_t d = 1; d < s.histogram.size(); ++d) {
          if (s.histogram[d] == 0) continue;
          max_shrink = std::max(max_shrink, d);
          if (d <= max_delay) {
            feasible += s.n * s.histogram[d] * (max_delay + 1 - d);
          }
        }
        store::ResultRecord detail;
        detail.experiment_id = "c2_implicit_census/" + s.name;
        detail.scale = scale_name(run_ctx.scale);
        detail.items_total = pairs;
        detail.headers = {"shrink", "ordered pairs"};
        for (std::uint32_t d = 1; d < s.histogram.size(); ++d) {
          if (s.histogram[d] == 0) continue;
          detail.rows.push_back(
              {std::to_string(d), std::to_string(s.n * s.histogram[d])});
        }
        detail.items_produced = detail.rows.size();
        const std::uint64_t stics = pairs * (max_delay + 1);
        CaseOutput out({s.name,
                        std::to_string(s.n),
                        std::to_string(s.edges),
                        std::to_string(pairs),
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
        "; Shrink == dist on these families (a common port sequence "
        "translates both endpoints identically), every pair symmetric."};
  };
  registry.add(std::move(e));
}

}  // namespace rdv::exp::scenarios
