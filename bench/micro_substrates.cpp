// M1 — substrate micro-benchmarks (google-benchmark): view refinement,
// Shrink product-BFS, UXS verification, engine round throughput, and
// the implicit Q-hat step resolution (memo hit, tree child, leaf link).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "core/asymm_rv.hpp"
#include "graph/families/families.hpp"
#include "graph/families/qhat.hpp"
#include "graph/families/qhat_implicit.hpp"
#include "sim/engine.hpp"
#include "support/splitmix.hpp"
#include "uxs/uxs.hpp"
#include "uxs/verifier.hpp"
#include "views/refinement.hpp"
#include "views/shrink.hpp"

namespace {

namespace families = rdv::graph::families;

void BM_ViewRefinement(benchmark::State& state) {
  const auto g = families::random_connected(
      static_cast<std::uint32_t>(state.range(0)), 2 * state.range(0), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rdv::views::compute_view_classes(g));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ViewRefinement)->Range(8, 512)->Complexity();

void BM_ShrinkProductBfs(benchmark::State& state) {
  const auto g = families::oriented_torus(
      static_cast<std::uint32_t>(state.range(0)),
      static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rdv::views::shrink(g, 0, 1));
  }
  state.SetComplexityN(state.range(0) * state.range(0));
}
BENCHMARK(BM_ShrinkProductBfs)->DenseRange(3, 9, 2)->Complexity();

void BM_UxsVerification(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto g = families::random_connected(n, 2 * n, 5);
  const auto y = rdv::uxs::Uxs::pseudo_random(8ull * n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rdv::uxs::check_coverage(g, y));
  }
}
BENCHMARK(BM_UxsVerification)->Range(8, 256);

void BM_EngineRoundThroughput(benchmark::State& state) {
  const auto g = families::oriented_ring(64);
  rdv::sim::AgentProgram mover = [](rdv::sim::Mailbox& mb,
                                    rdv::sim::Observation) ->
      rdv::sim::Proc {
        return [](rdv::sim::Mailbox& mb2) -> rdv::sim::Proc {
          for (;;) co_await mb2.move(0);
        }(mb);
      };
  rdv::sim::RunConfig config;
  config.max_rounds = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rdv::sim::run_anonymous(g, mover, 0, 32, 0, config));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineRoundThroughput)->Range(1 << 10, 1 << 16);

// Q-hat step resolution, one row per kind of step: a memo hit, a
// fresh tree child and a leaf link. The last two rebuild their
// topology, untimed, once it has no fresh edges left or holds 2^20
// nodes.

constexpr std::uint32_t kQhatBenchHeight = 20;

void BM_QhatImplicitStepMemoHit(benchmark::State& state) {
  // Replays a seeded 2^16-step walk that is fully materialized first.
  const families::QhatImplicitTopology topo(kQhatBenchHeight);
  rdv::support::SplitMix64 rng(20);
  std::vector<rdv::graph::Port> ports(1 << 16);
  rdv::graph::Node v = topo.root();
  for (auto& p : ports) {
    p = static_cast<rdv::graph::Port>(rng.next_below(4));
    v = topo.step(v, p).to;
  }
  std::size_t i = 0;
  v = topo.root();
  for (auto _ : state) {
    v = topo.step(v, ports[i]).to;
    if (++i == ports.size()) {
      i = 0;
      v = topo.root();
    }
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_QhatImplicitStepMemoHit);

void BM_QhatImplicitStepTreeChild(benchmark::State& state) {
  // Materializes the tree breadth first: node ids follow BFS order, so
  // node u's child edges are unresolved when u's turn comes.
  auto topo = std::make_unique<families::QhatImplicitTopology>(
      kQhatBenchHeight);
  rdv::graph::Node u = 0;
  rdv::graph::Port p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo->step(u, p));
    // Skips each node's parent edge, the one resolved edge ahead.
    do {
      if (++p == 4) {
        p = 0;
        ++u;
      }
    } while (topo->peek(u, p).to != rdv::graph::kNoNode);
    if (topo->materialized() >= (std::size_t{1} << 20)) {
      state.PauseTiming();
      topo = std::make_unique<families::QhatImplicitTopology>(
          kQhatBenchHeight);
      u = 0;
      p = 0;
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_QhatImplicitStepTreeChild);

void BM_QhatImplicitStepLeafLink(benchmark::State& state) {
  // Each of 2^16 seeded random leaves crosses its three leaf links; at
  // h = 20 the far leaf is almost always a new node.
  constexpr std::size_t kLeaves = 1 << 16;
  std::unique_ptr<families::QhatImplicitTopology> topo;
  std::vector<std::pair<rdv::graph::Node, rdv::graph::Port>> links;
  rdv::support::SplitMix64 rng(21);
  const auto fill = [&] {
    topo = std::make_unique<families::QhatImplicitTopology>(
        kQhatBenchHeight);
    links.clear();
    std::vector<families::Dir> path(kQhatBenchHeight);
    for (std::size_t leaf = 0; leaf < kLeaves; ++leaf) {
      for (std::size_t j = 0; j < path.size(); ++j) {
        do {
          path[j] = static_cast<families::Dir>(rng.next_below(4));
        } while (j > 0 && path[j] == families::opposite(path[j - 1]));
      }
      const rdv::graph::Node v = topo->node_at(path);
      for (rdv::graph::Port p = 0; p < 4; ++p) {
        if (p != families::to_port(families::opposite(path.back()))) {
          links.emplace_back(v, p);
        }
      }
    }
  };
  fill();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo->step(links[i].first, links[i].second));
    if (++i == links.size()) {
      state.PauseTiming();
      fill();
      i = 0;
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_QhatImplicitStepLeafLink);

}  // namespace

BENCHMARK_MAIN();
