// M2 — sweep-runner micro-benchmark: the same STIC feasibility kernel
// executed through sweep::sweep_map on a 1-thread pool (sequential
// baseline) and on the default pool.
//
// M3 — artifact-cache micro-benchmark: a repeated-graph classification
// sweep (per-case ViewClasses + quotient resolution over a small set of
// graphs) run uncached (recompute per case) vs through a
// cache::ArtifactCache, with a byte-identity cross-check between the
// two outputs.
//
// M4 — batched-Shrink micro-benchmark: every ordered pair of the n=40
// census graph through the per-pair product BFS vs one
// views::shrink_all_pairs sweep, values cross-checked (the >= 10x
// acceptance bar of the batched census engine); then the kernel alone
// per family at n ~ 1024 with its distance-row and pull-layer counters.
//
// M5 — refinement-engine micro-benchmark: the naive fixpoint oracle vs
// the splitter-worklist partition refinement on census-density random
// graphs, n = 64..2048, with a cell-by-cell class equality check per
// size (the >= 10x @ n=1024 acceptance bar of the worklist engine).
//
// M6 — event-recording overhead: the M2 kernel on a dedicated 4-thread
// pool with the event ring off vs on (41 interleaved off/on/off
// triples), gated on the median on/off ratio against a noise band
// measured from the same run's off/off ratios, at <= 2% overhead with
// zero dropped events; the reconstructed critical path must account
// for the sweep wall within 5% — the "observability must not perturb
// what it observes" bar.
//
// M7 — simulator cost per agent move: SymmRV, AsymmRV and UniversalRV
// on an oriented ring, the symmetric double tree and lazily interned
// Q-hat, best-of-3 wall per cell over a fixed STIC set, plus T6's
// dedicated Z runs for k = 6 on a fresh Q-hat(24) per repetition (the
// cost of interning the theorem-regime graph). Each cell also reports
// coroutine resumes per move (the sim.resumes counter over its moves):
// walk segments run without resuming the agent, so this names the
// cause when ns/move changes. The engine generates each agent's path
// alone and merges the paths; "gen ns/move" is the engine's own
// sim.generate_ns over the moves it generated (sim.moves), and "merge
// ns/round" its sim.merge_ns over the rounds the cell's runs merged.
// Informational: no gate, only the sim_ns_per_move_* and
// sim_resumes_per_move_* trend fields.
//
// M8 — store layer cost per artifact: encode, save (header and payload
// to a temp file, fsync, rename), load (exact-size read, header and
// checksum validation) and decode, as milliseconds and MB/s of payload
// over the best of 5, for the all-pairs Shrink table, view classes and
// quotient of the n = 1024 census graph M4 times. Each row also gives
// the bytes of the decoded arrays (n*n*4 for the Shrink table, whose
// payload stores narrowed cells): compare milliseconds across format
// changes, since MB/s of a smaller payload reads as a slowdown. Each
// round trip is checked byte for byte. Informational: no gate, only the
// JSON "store" rows.
//
// `micro_sweep --smoke` runs every section at tiny sizes with one
// repetition and a single M6 triple with no overhead gate (the dropped-
// event and critical-path checks still apply): a fast check that every
// section still builds, runs and cross-checks, not a measurement.
//
// Emits one BENCH_sweep.json datapoint (into REPRO_CSV_DIR when set,
// else the working directory) covering all comparisons for trend
// tracking.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/steiner.hpp"
#include "cache/artifact_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/task_events.hpp"
#include "core/asymm_rv.hpp"
#include "core/bounds.hpp"
#include "core/symm_rv.hpp"
#include "core/universal_rv.hpp"
#include "exp/experiment.hpp"
#include "graph/families/families.hpp"
#include "graph/families/qhat.hpp"
#include "graph/families/qhat_implicit.hpp"
#include "sim/engine.hpp"
#include "store/codec.hpp"
#include "store/disk_store.hpp"
#include "support/bench_json.hpp"
#include "support/env.hpp"
#include "support/saturating.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "sweep/sweep.hpp"
#include "views/quotient.hpp"
#include "views/refinement.hpp"
#include "views/refinement_worklist.hpp"
#include "views/shrink.hpp"

namespace {

double best_of_ms(int repeats, const std::function<void()>& fn) {
  double best = 0;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

/// Prints the table under its heading and, when REPRO_CSV_DIR is set,
/// also writes `<dir>/<id>.csv`.
void emit_table(const std::string& id, const std::string& heading,
                const rdv::support::Table& table) {
  std::printf("%s\n%s", heading.c_str(), table.to_markdown().c_str());
  const std::string dir = rdv::support::repro_csv_dir();
  if (!dir.empty()) {
    rdv::exp::write_file(dir + "/" + id + ".csv", table.to_csv());
  }
}

/// One M7 topology: the STICs simulated on it and the size n the
/// algorithms are told.
struct SimArena {
  const char* key;
  const rdv::graph::ITopology* topo;
  std::uint32_t n;
  std::vector<rdv::analysis::Stic> stics;
};

/// One M3 case: a (graph, STIC) pair. Cases repeat graphs many times —
/// the workload shape the cache exists for.
struct CacheCase {
  std::size_t graph = 0;
  rdv::analysis::Stic stic;
};

}  // namespace

int main(int argc, char** argv) {
  namespace families = rdv::graph::families;
  using rdv::analysis::Stic;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) != "--smoke") {
      std::fprintf(stderr, "usage: micro_sweep [--smoke]\n");
      return 2;
    }
    smoke = true;
  }

  // ---- M2: sequential vs pooled feasibility kernel -------------------
  const auto g = families::oriented_ring(rdv::support::repro_full() ? 8 : 6);
  const std::uint64_t max_delay = rdv::support::repro_full() ? 6 : 4;
  const auto classes = rdv::views::compute_view_classes(g);
  const auto shrink = rdv::views::shrink_all_pairs(g);
  const std::vector<Stic> stics =
      rdv::analysis::enumerate_stics(g, max_delay);

  rdv::core::UniversalOptions options;
  options.max_phases = 40;
  const auto program = rdv::core::universal_rv_program(options);
  rdv::sim::RunConfig run_config;
  run_config.max_rounds = 1u << 18;

  const std::function<rdv::analysis::SticCheck(std::size_t)> kernel =
      [&](std::size_t i) {
        const Stic& stic = stics[i];
        return rdv::analysis::verify_stic(
            classes, shrink, stic,
            rdv::sim::run_anonymous(g, program, stic.u, stic.v, stic.delay,
                                    run_config));
      };
  const auto sweep_stics = [&](const rdv::sweep::SweepConfig& config) {
    (void)rdv::sweep::sweep_map<rdv::analysis::SticCheck>(stics.size(),
                                                          kernel, config);
  };

  const int repeats = smoke ? 1 : 3;
  const int best_of = smoke ? 1 : 5;
  rdv::support::ThreadPool sequential(1);
  rdv::sweep::SweepConfig seq_config;
  seq_config.pool = &sequential;
  seq_config.chunk_size = 16;
  const double seq_ms = best_of_ms(repeats, [&] {
    sweep_stics(seq_config);
  });

  rdv::sweep::SweepConfig pool_config;
  pool_config.chunk_size = 16;
  const double pool_ms = best_of_ms(repeats, [&] {
    sweep_stics(pool_config);
  });
  const std::size_t pool_threads =
      rdv::support::default_pool().thread_count();

  rdv::support::Table table(
      {"config", "threads", "STICs", "best ms", "STICs/s"});
  const auto rate = [](double ms, std::size_t items) {
    return rdv::support::format_double(
        ms > 0 ? 1000.0 * static_cast<double>(items) / ms : 0, 1);
  };
  table.add_row({"sequential", "1", std::to_string(stics.size()),
                 rdv::support::format_double(seq_ms, 3),
                 rate(seq_ms, stics.size())});
  table.add_row({"pooled", std::to_string(pool_threads),
                 std::to_string(stics.size()),
                 rdv::support::format_double(pool_ms, 3),
                 rate(pool_ms, stics.size())});
  emit_table(
      "micro_sweep", "M2: sweep runner, sequential vs pooled", table);

  // ---- M2b: pool scaling of the one-queue scheduler ------------------
  // The same kernel on dedicated pools of 1..16 workers (deliberately
  // past the core count: oversubscription must degrade gracefully, not
  // collapse), plus a nested variant — an outer sweep whose kernel
  // runs an inner sweep on the SAME pool, the t2 shape that the
  // work-assisting wait unlocked. One JSON datapoint per thread count,
  // carrying the scheduler counters (parks, wakeups) the pool
  // accumulated across both sweeps — the park/wakeup ratio is how a
  // trend reader spots thundering-herd regressions at high counts.
  struct ScalePoint {
    std::size_t threads;
    double flat_ms;
    double nested_ms;
    std::uint64_t parks;
    std::uint64_t wakeups;
  };
  std::vector<ScalePoint> scaling;
  rdv::support::Table scale_table({"threads", "flat best ms",
                                   "flat STICs/s", "nested best ms",
                                   "parks", "wakeups"});
  const std::vector<std::size_t> thread_counts =
      smoke ? std::vector<std::size_t>{1, 4}
            : std::vector<std::size_t>{1, 2, 4, 8, 16};
  for (const std::size_t threads : thread_counts) {
    rdv::support::ThreadPool pool(threads);
    rdv::sweep::SweepConfig config;
    config.pool = &pool;
    config.chunk_size = 16;
    const double flat_ms = best_of_ms(repeats, [&] {
      sweep_stics(config);
    });
    // Nested: outer cases fan out on the pool AND each runs a chunked
    // inner sweep on it (blocking, work-assisting).
    rdv::sweep::SweepConfig outer_config = config;
    outer_config.chunk_size = 1;
    const std::size_t outer_cases = 8;
    const std::size_t inner_span = stics.size();
    const std::function<std::uint64_t(std::size_t)> outer_case =
        [&](std::size_t) {
          const std::function<std::uint64_t(std::size_t)> inner =
              [&](std::size_t i) {
                const auto check = kernel(i);
                return check.run.met ? check.run.meet_round_absolute : 0;
              };
          const std::vector<std::uint64_t> rounds =
              rdv::sweep::sweep_map<std::uint64_t>(inner_span, inner,
                                                   config);
          std::uint64_t sum = 0;
          for (const std::uint64_t r : rounds) sum += r;
          return sum;
        };
    const double nested_ms = best_of_ms(repeats, [&] {
      (void)rdv::sweep::sweep_map<std::uint64_t>(outer_cases, outer_case,
                                                 outer_config);
    });
    scaling.push_back(ScalePoint{threads, flat_ms, nested_ms,
                                 pool.park_count(), pool.wakeup_count()});
    scale_table.add_row({std::to_string(threads),
                         rdv::support::format_double(flat_ms, 3),
                         rate(flat_ms, stics.size()),
                         rdv::support::format_double(nested_ms, 3),
                         std::to_string(pool.park_count()),
                         std::to_string(pool.wakeup_count())});
  }
  emit_table(
      "micro_sweep_scaling",
      "M2b: pool scaling, flat and nested sweeps",
      scale_table);

  // ---- M3: uncached vs cached per-graph artifact resolution ----------
  // A small set of distinct graphs, each appearing in many cases: the
  // shape of every T-series sweep. The kernel resolves the graph's view
  // partition and quotient PER CASE; uncached that is O(n^2 m) each
  // time, cached it is one compute per distinct graph.
  const std::uint32_t cache_n = rdv::support::repro_full() ? 10 : 8;
  std::vector<rdv::graph::Graph> cache_graphs;
  cache_graphs.push_back(families::oriented_ring(cache_n));
  cache_graphs.push_back(families::scrambled_ring(cache_n, /*seed=*/11));
  cache_graphs.push_back(families::path_graph(cache_n));
  cache_graphs.push_back(families::complete(cache_n));
  cache_graphs.push_back(families::oriented_torus(3, 3));

  std::vector<CacheCase> cases;
  for (std::size_t gi = 0; gi < cache_graphs.size(); ++gi) {
    const rdv::graph::Graph& cg = cache_graphs[gi];
    for (rdv::graph::Node u = 0; u < cg.size(); ++u) {
      for (rdv::graph::Node v = 0; v < cg.size(); ++v) {
        if (u != v) cases.push_back(CacheCase{gi, Stic{u, v, 0}});
      }
    }
  }

  // Rows carry (graph, u, v, symmetric?, quotient class count) — enough
  // to prove the cached and uncached sweeps produce identical bytes.
  const auto case_row = [&](const CacheCase& c,
                            const rdv::views::ViewClasses& vc,
                            const rdv::views::QuotientGraph& q) {
    return std::vector<std::string>{
        cache_graphs[c.graph].name(), std::to_string(c.stic.u),
        std::to_string(c.stic.v),
        vc.symmetric(c.stic.u, c.stic.v) ? "yes" : "no",
        std::to_string(q.class_count())};
  };
  const std::function<std::vector<std::string>(std::size_t)> uncached_fn =
      [&](std::size_t i) {
        const CacheCase& c = cases[i];
        const auto vc =
            rdv::views::compute_view_classes(cache_graphs[c.graph]);
        const auto q = rdv::views::build_quotient(cache_graphs[c.graph], vc);
        return case_row(c, vc, q);
      };
  rdv::cache::ArtifactCache cache;
  // Fingerprints resolved once per distinct graph (the pattern the
  // fingerprint-reuse overloads exist for), so the cached timing
  // measures artifact resolution, not redundant re-hashing.
  std::vector<rdv::cache::GraphFingerprint> fingerprints;
  fingerprints.reserve(cache_graphs.size());
  for (const rdv::graph::Graph& cg : cache_graphs) {
    fingerprints.push_back(rdv::cache::fingerprint(cg));
  }
  const std::function<std::vector<std::string>(std::size_t)> cached_fn =
      [&](std::size_t i) {
        const CacheCase& c = cases[i];
        const auto vc =
            cache.view_classes(cache_graphs[c.graph], fingerprints[c.graph]);
        const auto q =
            cache.quotient(cache_graphs[c.graph], fingerprints[c.graph]);
        return case_row(c, *vc, *q);
      };

  using Rows = std::vector<std::vector<std::string>>;
  Rows uncached_rows;
  Rows cached_rows;
  const double uncached_ms = best_of_ms(repeats, [&] {
    uncached_rows = rdv::sweep::sweep_map<std::vector<std::string>>(
        cases.size(), uncached_fn, pool_config);
  });
  // One un-timed pass yields PER-SWEEP hit/miss counters (best_of_ms
  // would accumulate stats across every repeat) and warms the cache, so
  // cached_ms below is the steady-state number.
  cached_rows = rdv::sweep::sweep_map<std::vector<std::string>>(
      cases.size(), cached_fn, pool_config);
  const rdv::cache::CacheStats cache_stats = cache.stats();
  const double cached_ms = best_of_ms(repeats, [&] {
    cached_rows = rdv::sweep::sweep_map<std::vector<std::string>>(
        cases.size(), cached_fn, pool_config);
  });
  // Determinism cross-check: the cache must not change a single byte.
  const std::vector<std::string> cache_headers = {"graph", "u", "v",
                                                  "symmetric", "classes"};
  rdv::support::Table uncached_table(cache_headers);
  rdv::support::Table cached_table(cache_headers);
  for (const auto& row : uncached_rows) uncached_table.add_row(row);
  for (const auto& row : cached_rows) cached_table.add_row(row);
  if (uncached_table.to_csv() != cached_table.to_csv()) {
    std::fprintf(stderr,
                 "error: cached sweep output differs from uncached\n");
    return 1;
  }

  rdv::support::Table cache_cmp(
      {"config", "cases", "graphs", "best ms", "cases/s", "hits", "misses"});
  cache_cmp.add_row({"uncached", std::to_string(cases.size()),
                     std::to_string(cache_graphs.size()),
                     rdv::support::format_double(uncached_ms, 3),
                     rate(uncached_ms, cases.size()), "-", "-"});
  cache_cmp.add_row({"cached", std::to_string(cases.size()),
                     std::to_string(cache_graphs.size()),
                     rdv::support::format_double(cached_ms, 3),
                     rate(cached_ms, cases.size()),
                     std::to_string(cache_stats.total_hits()),
                     std::to_string(cache_stats.total_misses())});
  emit_table(
      "micro_sweep_cache",
      "M3: repeated-graph artifact sweep, uncached vs cached", cache_cmp);

  // ---- M4: batched all-pairs Shrink vs per-pair product BFS ----------
  // The n=40 census graph that was the per-pair ceiling: every ordered
  // pair through shrink_with_witness (one product BFS each — the old
  // census path) vs ONE views::shrink_all_pairs sweep, values
  // cross-checked cell by cell. The acceptance bar is a >= 10x speedup.
  const auto shrink_g = families::random_connected(40, 70, 30);
  const std::uint32_t sn = shrink_g.size();
  std::vector<std::uint32_t> per_pair_values(
      static_cast<std::size_t>(sn) * sn, 0);
  // One timed pass only: this is the slow side being retired.
  const double per_pair_ms = best_of_ms(1, [&] {
    for (rdv::graph::Node u = 0; u < sn; ++u) {
      for (rdv::graph::Node v = 0; v < sn; ++v) {
        if (u == v) continue;
        per_pair_values[static_cast<std::size_t>(u) * sn + v] =
            rdv::views::shrink(shrink_g, u, v);
      }
    }
  });
  rdv::views::AllPairsShrink batched;
  const double batched_ms = best_of_ms(repeats, [&] {
    batched = rdv::views::shrink_all_pairs(shrink_g);
  });
  for (rdv::graph::Node u = 0; u < sn; ++u) {
    for (rdv::graph::Node v = 0; v < sn; ++v) {
      if (u != v && batched.at(u, v) !=
                        per_pair_values[static_cast<std::size_t>(u) * sn + v]) {
        std::fprintf(stderr,
                     "error: batched Shrink(%u, %u) disagrees with the "
                     "per-pair oracle\n",
                     u, v);
        return 1;
      }
    }
  }
  const double batched_speedup =
      batched_ms > 0 ? per_pair_ms / batched_ms : 0;
  const std::uint64_t shrink_pairs =
      static_cast<std::uint64_t>(sn) * (sn - 1);
  rdv::support::Table shrink_cmp(
      {"kernel", "ordered pairs", "best ms", "speedup"});
  shrink_cmp.add_row({"per-pair product BFS", std::to_string(shrink_pairs),
                      rdv::support::format_double(per_pair_ms, 3), "1.0"});
  shrink_cmp.add_row({"batched all-pairs", std::to_string(shrink_pairs),
                      rdv::support::format_double(batched_ms, 3),
                      rdv::support::format_double(batched_speedup, 1)});
  emit_table(
      "micro_sweep_shrink",
      "M4: all-pairs Shrink, per-pair product BFS vs batched sweep",
      shrink_cmp);

  // Per-family rows at n ~ 1024 (n ~ 64 under --smoke): census_cold's
  // four large graphs (c1's n = 1024 random graph stands in for its
  // seed-drawn one), a ring and a path. Each row reports the kernel's
  // counters for one call: whether it took the pair-orbit path, BFS
  // distance rows run (0 when level 0 closes every pair) and closure
  // layers that pulled, so a before/after names the layer that moved.
  rdv::support::Table shrink_families({"graph", "n", "best ms", "ns/pair",
                                       "orbit path", "distance rows",
                                       "pull layers"});
  const std::uint32_t family_n = smoke ? 64 : 1024;
  const std::uint32_t family_side = smoke ? 8 : 32;
  for (const auto& g :
       {families::random_connected(family_n, (family_n * 7) / 4, 35),
        families::oriented_torus(family_side, family_side),
        families::hypercube(smoke ? 6 : 10),
        families::symmetric_double_tree(2, smoke ? 4 : 8),
        families::oriented_ring(family_n), families::path_graph(family_n)}) {
    std::uint64_t orbit = 0;
    std::uint64_t rows = 0;
    std::uint64_t pulls = 0;
    const double ms = best_of_ms(best_of, [&] {
      const std::uint64_t orbit_before =
          rdv::views::shrink_transitive_table_count();
      const std::uint64_t rows_before =
          rdv::views::shrink_distance_row_count();
      const std::uint64_t pulls_before = rdv::views::shrink_pull_layer_count();
      (void)rdv::views::shrink_all_pairs(g);
      orbit = rdv::views::shrink_transitive_table_count() - orbit_before;
      rows = rdv::views::shrink_distance_row_count() - rows_before;
      pulls = rdv::views::shrink_pull_layer_count() - pulls_before;
    });
    const std::uint64_t n = g.size();
    shrink_families.add_row(
        {g.name(), std::to_string(n), rdv::support::format_double(ms, 3),
         rdv::support::format_double(ms * 1e6 / (n * (n + 1) / 2), 1),
         orbit != 0 ? "yes" : "no", std::to_string(rows),
         std::to_string(pulls)});
  }
  emit_table(
      "micro_sweep_shrink_families",
      "M4: all-pairs Shrink per family at n ~ " + std::to_string(family_n) +
          " (best of " + std::to_string(best_of) +
          ", ns per unordered pair)",
      shrink_families);

  // ---- M5: naive fixpoint vs splitter-worklist refinement ------------
  // Two families through both engines at n = 64..2048, every size
  // cross-checked cell by cell on class ids and count — the canonical
  // contract the facade swap rests on. "random" rows use census
  // density (extra ~ 1.75 n, the c1 ratio); those converge in ~diam
  // rounds, so both engines are near-linear and the speedup is modest.
  // "path" rows are the naive engine's worst case — refinement peels
  // one distance-to-end layer per round, Theta(n) rounds, the O(n^2 m)
  // bound realized — where the worklist's O(m log n) shows up as the
  // acceptance-bar speedup (refine_speedup_1024 below is the path row).
  // The naive side is timed once (it is the engine being retired); the
  // worklist side gets the usual best-of repeats.
  struct RefinePoint {
    const char* family;
    std::uint32_t n;
    std::uint64_t edges;
    std::uint32_t classes;
    double naive_ms;
    double worklist_ms;
    double speedup;
  };
  std::vector<RefinePoint> refine_points;
  double refine_speedup_1024 = 0;
  rdv::support::Table refine_cmp({"family", "n", "edges", "classes",
                                  "naive ms", "worklist ms", "speedup"});
  for (const char* family : {"random", "path"}) {
    const bool is_path = std::string("path") == family;
    for (const std::uint32_t rn :
         smoke ? std::vector<std::uint32_t>{64, 128}
               : std::vector<std::uint32_t>{64, 128, 256, 512, 1024, 2048}) {
      const auto rg =
          is_path ? families::path_graph(rn)
                  : families::random_connected(rn, (rn * 7) / 4,
                                               /*seed=*/40 + rn);
      rdv::views::ViewClasses naive;
      const double naive_ms = best_of_ms(1, [&] {
        naive = rdv::views::compute_view_classes_naive(rg);
      });
      rdv::views::ViewClasses worklist;
      const double worklist_ms = best_of_ms(repeats, [&] {
        worklist = rdv::views::compute_view_classes_worklist(rg);
      });
      if (worklist.class_count != naive.class_count ||
          worklist.class_of != naive.class_of) {
        std::fprintf(stderr,
                     "error: worklist refinement disagrees with the naive "
                     "oracle on %s\n",
                     rg.name().c_str());
        return 1;
      }
      const double speedup = worklist_ms > 0 ? naive_ms / worklist_ms : 0;
      if (is_path && rn == 1024) refine_speedup_1024 = speedup;
      refine_points.push_back(RefinePoint{family, rn, rg.edge_count(),
                                          worklist.class_count, naive_ms,
                                          worklist_ms, speedup});
      refine_cmp.add_row({family, std::to_string(rn),
                          std::to_string(rg.edge_count()),
                          std::to_string(worklist.class_count),
                          rdv::support::format_double(naive_ms, 3),
                          rdv::support::format_double(worklist_ms, 3),
                          rdv::support::format_double(speedup, 1)});
    }
  }
  emit_table(
      "micro_sweep_refine",
      "M5: view refinement, naive fixpoint vs splitter worklist",
      refine_cmp);

  // ---- M6: event-recording overhead, off vs on -----------------------
  // Interleaved off/on/off triples. The gate statistic is the median
  // over triples of on / mean(off, off): the neighbours bracket the on
  // run, so linear drift cancels. Its noise band comes from the same
  // run's off/off ratios (the triple's two off runs, in alternating
  // order): rdv_metrics diff's mu + max(3 sigma, 5% mu) rule, where
  // sigma is the standard error of a median of that many ratios
  // (1.2533 sigma_ratio / sqrt(n)), because the gated number is a
  // median, not one pair. The gate trips only above the band, the 2%
  // threshold and the 0.5 ms absolute floor. clear_task_events before
  // every recorded run keeps the final drain to exactly one run's
  // events.
  rdv::support::ThreadPool profile_pool(4);
  rdv::sweep::SweepConfig profile_config;
  profile_config.pool = &profile_pool;
  profile_config.chunk_size = 16;
  const auto timed_sweep_ms = [&](bool record) {
    rdv::obs::set_task_events_enabled(record);
    if (record) rdv::obs::clear_task_events();
    const double ms = best_of_ms(1, [&] {
      sweep_stics(profile_config);
    });
    rdv::obs::set_task_events_enabled(false);
    return ms;
  };
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
  };
  // One triple under --smoke: too few ratios for a band, so no gate.
  const int triples = smoke ? 1 : 41;
  std::vector<double> on_ratios;
  std::vector<double> null_ratios;
  std::vector<double> off_runs;
  std::vector<double> on_runs;
  for (int i = 0; i < triples; ++i) {
    const double off_a = timed_sweep_ms(false);
    const double on = timed_sweep_ms(true);
    const double off_b = timed_sweep_ms(false);
    on_ratios.push_back(on / ((off_a + off_b) / 2));
    null_ratios.push_back(i % 2 == 0 ? off_b / off_a : off_a / off_b);
    off_runs.push_back(off_a);
    off_runs.push_back(off_b);
    on_runs.push_back(on);
  }
  const rdv::obs::Profile profile =
      rdv::obs::build_profile(rdv::obs::drain_task_events());
  double null_mu = 0;
  for (const double r : null_ratios) null_mu += r;
  null_mu /= triples;
  double null_var = 0;
  for (const double r : null_ratios) null_var += (r - null_mu) * (r - null_mu);
  null_var /= triples;
  const double median_se = 1.2533 * std::sqrt(null_var / triples);
  const double band = null_mu + std::max(3 * median_se, 0.05 * null_mu);
  const double on_ratio = median(on_ratios);

  const double profile_off_ms = median(off_runs);
  const double profile_on_ms = median(on_runs);
  const double profile_overhead_pct = (on_ratio - 1.0) * 100.0;
  const double profile_band_pct = (band - 1.0) * 100.0;
  if (profile.dropped != 0) {
    std::fprintf(stderr,
                 "error: event ring dropped %llu events (ring too small "
                 "for the workload)\n",
                 static_cast<unsigned long long>(profile.dropped));
    return 1;
  }
  if (!smoke && on_ratio > band && profile_overhead_pct > 2.0 &&
      (on_ratio - 1.0) * profile_off_ms > 0.5) {
    std::fprintf(stderr,
                 "error: event-recording overhead %.2f%% (median of %d "
                 "on/off ratios) exceeds the 2%% gate and the off/off "
                 "noise band %.2f%% (off %.3f ms, on %.3f ms)\n",
                 profile_overhead_pct, triples, profile_band_pct,
                 profile_off_ms, profile_on_ms);
    return 1;
  }
  for (const rdv::obs::SweepProfile& sp : profile.sweeps) {
    if (sp.micros() == 0) continue;
    const rdv::obs::CriticalPath cp =
        rdv::obs::critical_path(profile, sp.id);
    const double deviation =
        (cp.stage_sum() > cp.total_micros
             ? static_cast<double>(cp.stage_sum() - cp.total_micros)
             : static_cast<double>(cp.total_micros - cp.stage_sum())) /
        static_cast<double>(cp.total_micros);
    if (deviation > 0.05) {
      std::fprintf(stderr,
                   "error: sweep %llu critical-path stage sum %llu us "
                   "deviates %.1f%% from wall %llu us\n",
                   static_cast<unsigned long long>(sp.id),
                   static_cast<unsigned long long>(cp.stage_sum()),
                   deviation * 100.0,
                   static_cast<unsigned long long>(cp.total_micros));
      return 1;
    }
  }
  rdv::support::Table profile_cmp({"config", "threads", "median ms",
                                   "overhead %", "band %", "events",
                                   "dropped"});
  profile_cmp.add_row({"recording off", "4",
                       rdv::support::format_double(profile_off_ms, 3), "-",
                       "-", "-", "-"});
  profile_cmp.add_row({"recording on", "4",
                       rdv::support::format_double(profile_on_ms, 3),
                       rdv::support::format_double(profile_overhead_pct, 2),
                       rdv::support::format_double(profile_band_pct, 2),
                       std::to_string(profile.events),
                       std::to_string(profile.dropped)});
  emit_table(
      "micro_sweep_profile",
      "M6: event-recording overhead, off vs on (median of interleaved "
      "triples)",
      profile_cmp);

  // ---- M7: simulator ns per agent move -------------------------------
  // Each cell runs one program over its arena's STICs (delays 0..1)
  // under the round cap the algorithm's tests use, clamped to 2^18 so
  // AsymmRV's long Q-hat budget stays a sample; ns/move is the
  // best-of-3 wall of the whole cell over its (deterministic) moves.
  const auto sim_ring = families::oriented_ring(4);
  const auto sim_tree = families::symmetric_double_tree(1, 1);
  const families::QhatImplicitTopology sim_qhat(2);
  std::vector<SimArena> arenas;
  arenas.push_back({"ring", &sim_ring, sim_ring.size(),
                    rdv::analysis::enumerate_stics(sim_ring, 1)});
  arenas.push_back({"tree", &sim_tree, sim_tree.size(),
                    rdv::analysis::enumerate_stics(sim_tree, 1)});
  {
    SimArena qhat{"qhat", &sim_qhat,
                  static_cast<std::uint32_t>(families::qhat_size(2)), {}};
    for (const rdv::graph::Node v :
         families::qhat_z_set(sim_qhat, sim_qhat.root(), 1)) {
      for (std::uint64_t delay = 0; delay <= 1; ++delay) {
        qhat.stics.push_back(Stic{sim_qhat.root(), v, delay});
      }
    }
    arenas.push_back(std::move(qhat));
  }
  // (algorithm_topology, ns/move) and (algorithm_topology,
  // resumes/move) for the JSON trend fields.
  std::vector<std::pair<std::string, double>> sim_ns_per_move;
  std::vector<std::pair<std::string, double>> sim_resumes_per_move;
  rdv::obs::Counter& sim_resumes = rdv::obs::counter("sim.resumes");
  // Resumes per move over `repeats` repetitions of a cell's moves.
  const auto resumes_per_move = [&](std::uint64_t before,
                                    std::uint64_t moves) {
    return moves > 0 ? static_cast<double>(sim_resumes.value() - before) /
                           repeats / static_cast<double>(moves)
                     : 0.0;
  };
  rdv::support::Table sim_table({"program", "topology", "runs", "moves",
                                 "rounds", "best ms", "ns/move",
                                 "resumes/move", "gen ns/move",
                                 "merge ns/round"});
  rdv::obs::Counter& sim_moves = rdv::obs::counter("sim.moves");
  rdv::obs::Counter& sim_generate_ns = rdv::obs::counter("sim.generate_ns");
  rdv::obs::Counter& sim_merge_ns = rdv::obs::counter("sim.merge_ns");
  // The generation and merge columns of a cell whose `repeats`
  // repetitions merged `rounds` rounds each, from the engine's counters
  // as they stood before the cell.
  const auto split = [&](std::uint64_t moves_before,
                         std::uint64_t generate_before,
                         std::uint64_t merge_before, std::uint64_t rounds) {
    const double moves = static_cast<double>(sim_moves.value() - moves_before);
    const double merged = static_cast<double>(rounds) * repeats;
    const double gen =
        moves > 0 ? (sim_generate_ns.value() - generate_before) / moves : 0;
    const double merge =
        merged > 0 ? (sim_merge_ns.value() - merge_before) / merged : 0;
    return std::vector<std::string>{rdv::support::format_double(gen, 1),
                                    rdv::support::format_double(merge, 3)};
  };
  rdv::core::UniversalOptions sim_universal;
  sim_universal.max_phases = 40;
  const auto universal_program = rdv::core::universal_rv_program(sim_universal);
  for (const std::string algorithm : {"symm_rv", "asymm_rv", "universal_rv"}) {
    for (const SimArena& arena : arenas) {
      // Programs and caps are built outside the timed region.
      const auto y = rdv::cache::cached_uxs(arena.n);
      std::vector<std::pair<rdv::sim::AgentProgram, rdv::sim::RunConfig>> jobs;
      for (const Stic& s : arena.stics) {
        rdv::sim::RunConfig config;
        if (algorithm == "symm_rv") {
          config.max_rounds = rdv::support::sat_mul(
              4, rdv::core::symm_rv_time_bound(arena.n, 1, 2, y->length()));
          jobs.emplace_back(rdv::core::symm_rv_program(arena.n, 1, 2, *y),
                            config);
        } else if (algorithm == "asymm_rv") {
          const std::uint64_t budget =
              rdv::core::asymm_rv_time_bound(arena.n, s.delay, y->length());
          config.max_rounds = rdv::support::sat_add(
              rdv::support::sat_mul(2, budget), s.delay);
          jobs.emplace_back(rdv::core::asymm_rv_program(arena.n, *y, budget),
                            config);
        } else {
          jobs.emplace_back(universal_program, config);
        }
        jobs.back().second.max_rounds =
            std::min<std::uint64_t>(config.max_rounds, 1u << 18);
      }
      std::uint64_t moves = 0;
      std::uint64_t rounds = 0;
      const std::uint64_t resumes_before = sim_resumes.value();
      const std::uint64_t moves_before = sim_moves.value();
      const std::uint64_t generate_before = sim_generate_ns.value();
      const std::uint64_t merge_before = sim_merge_ns.value();
      const double ms = best_of_ms(repeats, [&] {
        moves = 0;
        rounds = 0;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
          const Stic& s = arena.stics[i];
          const rdv::sim::RunResult r =
              rdv::sim::run_anonymous(*arena.topo, jobs[i].first, s.u, s.v,
                                      s.delay, jobs[i].second);
          moves += r.moves[0] + r.moves[1];
          rounds += r.rounds_simulated;
        }
      });
      const double ns_per_move =
          moves > 0 ? ms * 1e6 / static_cast<double>(moves) : 0;
      const double resumes = resumes_per_move(resumes_before, moves);
      sim_ns_per_move.emplace_back(algorithm + "_" + arena.key, ns_per_move);
      sim_resumes_per_move.emplace_back(algorithm + "_" + arena.key, resumes);
      std::vector<std::string> row{algorithm, arena.topo->name(),
                                   std::to_string(arena.stics.size()),
                                   std::to_string(moves), std::to_string(rounds),
                                   rdv::support::format_double(ms, 3),
                                   rdv::support::format_double(ns_per_move, 1),
                                   rdv::support::format_double(resumes, 3)};
      for (std::string& cell :
           split(moves_before, generate_before, merge_before, rounds)) {
        row.push_back(std::move(cell));
      }
      sim_table.add_row(row);
    }
  }
  {
    // Theorem regime: T6's Z runs for k = 6 on a fresh Q-hat(24) per
    // repetition, so interning, the step memo and freeing the topology
    // are all inside the timed region (the qhat_implicit(2) arena above
    // is fully materialized after its first run).
    constexpr std::uint32_t kZ = 6;
    const auto program = rdv::analysis::dedicated_z_program(kZ);
    rdv::sim::RunConfig config;
    config.max_rounds = 64ull * kZ * (std::uint64_t{2} << kZ);
    std::string name;
    std::size_t runs = 0;
    std::uint64_t moves = 0;
    std::uint64_t rounds = 0;
    const std::uint64_t resumes_before = sim_resumes.value();
    const std::uint64_t moves_before = sim_moves.value();
    const std::uint64_t generate_before = sim_generate_ns.value();
    const std::uint64_t merge_before = sim_merge_ns.value();
    const double ms = best_of_ms(repeats, [&] {
      const families::QhatImplicitTopology topo(4 * kZ);
      const auto z = families::qhat_z_set(topo, topo.root(), kZ);
      name = topo.name();
      runs = z.size();
      moves = 0;
      rounds = 0;
      for (const rdv::graph::Node v : z) {
        const rdv::sim::RunResult r = rdv::sim::run_anonymous(
            topo, program, topo.root(), v, 2 * kZ, config);
        moves += r.moves[0] + r.moves[1];
        rounds += r.rounds_simulated;
      }
    });
    const double ns_per_move =
        moves > 0 ? ms * 1e6 / static_cast<double>(moves) : 0;
    const double resumes = resumes_per_move(resumes_before, moves);
    sim_ns_per_move.emplace_back("z_qhat24", ns_per_move);
    sim_resumes_per_move.emplace_back("z_qhat24", resumes);
    std::vector<std::string> row{"dedicated_z(6)", name, std::to_string(runs),
                                 std::to_string(moves), std::to_string(rounds),
                                 rdv::support::format_double(ms, 3),
                                 rdv::support::format_double(ns_per_move, 1),
                                 rdv::support::format_double(resumes, 3)};
    for (std::string& cell :
         split(moves_before, generate_before, merge_before, rounds)) {
      row.push_back(std::move(cell));
    }
    sim_table.add_row(row);
  }
  emit_table("micro_sweep_sim", "M7: simulator cost per agent move",
             sim_table);

  // ---- M8: store layer per artifact ---------------------------------
  // One payload of each census artifact of M4's random graph through
  // the four store steps. save() is measured as it runs in production,
  // fsync included, so its MB/s is bounded by the device under the
  // temp directory.
  struct StorePoint {
    const char* artifact;
    std::size_t bytes;
    std::size_t table_bytes;
    double encode_ms;
    double save_ms;
    double load_ms;
    double decode_ms;
  };
  std::vector<StorePoint> store_points;
  const std::filesystem::path store_root =
      std::filesystem::temp_directory_path() / "rdv_micro_sweep_store";
  std::filesystem::remove_all(store_root);
  {
    rdv::store::DiskConfig disk_config;
    disk_config.root = store_root.string();
    rdv::store::DiskStore disk(disk_config);
    const auto store_g = families::random_connected(
        family_n, (family_n * 7) / 4, 35);
    const auto store_classes = rdv::views::compute_view_classes(store_g);
    const auto store_quotient =
        rdv::views::build_quotient(store_g, store_classes);
    const auto store_shrink = rdv::views::shrink_all_pairs(store_g);
    // Encodes, saves, loads and decodes `value`, whose arrays take
    // `table_bytes`; false when a step fails or the round trip changes
    // a byte.
    const auto measure = [&](const char* artifact, rdv::store::Kind kind,
                             const auto& value, std::size_t table_bytes,
                             auto encode, auto decode) {
      std::string payload;
      StorePoint point{artifact, 0, table_bytes, 0, 0, 0, 0};
      point.encode_ms = best_of_ms(best_of, [&] { payload = encode(value); });
      point.bytes = payload.size();
      bool ok = true;
      point.save_ms = best_of_ms(best_of, [&] {
        ok = disk.save(kind, store_g.name(), payload) && ok;
      });
      std::optional<std::string> loaded;
      point.load_ms = best_of_ms(best_of, [&] {
        loaded = disk.load(kind, store_g.name());
      });
      if (!ok || !loaded.has_value() || *loaded != payload) return false;
      std::decay_t<decltype(value)> decoded;
      point.decode_ms =
          best_of_ms(best_of, [&] { decoded = decode(*loaded); });
      store_points.push_back(point);
      return encode(decoded) == payload;
    };
    std::size_t quotient_bytes = 4 * store_quotient.multiplicity.size();
    for (const auto& arcs : store_quotient.arcs) {
      quotient_bytes += sizeof(rdv::views::QuotientArc) * arcs.size();
    }
    const bool stored =
        measure("shrink_all_pairs", rdv::store::Kind::kShrinkAllPairs,
                store_shrink, 4 * store_shrink.values.size(),
                rdv::store::encode_all_pairs_shrink,
                rdv::store::decode_all_pairs_shrink) &&
        measure("view_classes", rdv::store::Kind::kViewClasses,
                store_classes, 4 * store_classes.class_of.size(),
                rdv::store::encode_view_classes,
                rdv::store::decode_view_classes) &&
        measure("quotients", rdv::store::Kind::kQuotients, store_quotient,
                quotient_bytes, rdv::store::encode_quotient,
                rdv::store::decode_quotient);
    if (!stored) {
      std::fprintf(stderr,
                   "error: store round trip failed or changed a byte\n");
      return 1;
    }
  }
  std::filesystem::remove_all(store_root);
  const auto mb_per_s = [](std::size_t bytes, double ms) {
    return ms > 0 ? static_cast<double>(bytes) / (ms * 1000.0) : 0;
  };
  rdv::support::Table store_table(
      {"artifact", "n", "payload bytes", "table bytes", "encode ms",
       "save ms", "load ms", "decode ms", "encode MB/s", "save MB/s",
       "load MB/s", "decode MB/s"});
  for (const StorePoint& p : store_points) {
    store_table.add_row(
        {p.artifact, std::to_string(family_n), std::to_string(p.bytes),
         std::to_string(p.table_bytes),
         rdv::support::format_double(p.encode_ms, 3),
         rdv::support::format_double(p.save_ms, 3),
         rdv::support::format_double(p.load_ms, 3),
         rdv::support::format_double(p.decode_ms, 3),
         rdv::support::format_double(mb_per_s(p.bytes, p.encode_ms), 1),
         rdv::support::format_double(mb_per_s(p.bytes, p.save_ms), 1),
         rdv::support::format_double(mb_per_s(p.bytes, p.load_ms), 1),
         rdv::support::format_double(mb_per_s(p.bytes, p.decode_ms), 1)});
  }
  emit_table(
      "micro_sweep_store",
      "M8: store layer per artifact (best of " + std::to_string(best_of) +
          "; ms per step, MB/s of payload)",
      store_table);

  // Through support/env like every other binary (the invariant
  // linter's first catch was a naked getenv here).
  const std::string dir = rdv::support::repro_csv_dir();
  const std::string json_path =
      (dir.empty() ? std::string() : dir + "/") + "BENCH_sweep.json";
  std::ostringstream json;
  json << "{\"bench\":\"micro_sweep\",\"graph\":\"" << g.name()
       << "\",\"items\":" << stics.size()
       << ",\"chunk_size\":" << pool_config.chunk_size
       << ",\"seq_ms\":" << seq_ms << ",\"pool_ms\":" << pool_ms
       << ",\"pool_threads\":" << pool_threads << ",\"speedup\":"
       << (pool_ms > 0 ? seq_ms / pool_ms : 0)
       << ",\"cache_items\":" << cases.size()
       << ",\"cache_graphs\":" << cache_graphs.size()
       << ",\"uncached_ms\":" << uncached_ms
       << ",\"cached_ms\":" << cached_ms << ",\"cache_speedup\":"
       << (cached_ms > 0 ? uncached_ms / cached_ms : 0)
       << ",\"cache_hits\":" << cache_stats.total_hits()
       << ",\"cache_misses\":" << cache_stats.total_misses()
       << ",\"cache_bytes\":" << cache_stats.total_bytes()
       << ",\"shrink_n\":" << sn
       << ",\"shrink_pairs\":" << shrink_pairs
       << ",\"per_pair_ms\":" << per_pair_ms
       << ",\"batched_ms\":" << batched_ms
       << ",\"batched_speedup\":" << batched_speedup
       << ",\"refine_speedup_1024\":" << refine_speedup_1024
       << ",\"profile_off_ms\":" << profile_off_ms
       << ",\"profile_on_ms\":" << profile_on_ms
       << ",\"profile_overhead_pct\":" << profile_overhead_pct
       << ",\"profile_band_pct\":" << profile_band_pct
       << ",\"profile_events\":" << profile.events
       << ",\"profile_dropped\":" << profile.dropped;
  for (const auto& [key, ns] : sim_ns_per_move) {
    json << ",\"sim_ns_per_move_" << key << "\":" << ns;
  }
  for (const auto& [key, resumes] : sim_resumes_per_move) {
    json << ",\"sim_resumes_per_move_" << key << "\":" << resumes;
  }
  json << ",\"refine\":[";
  for (std::size_t i = 0; i < refine_points.size(); ++i) {
    if (i != 0) json << ",";
    json << "{\"family\":\"" << refine_points[i].family
         << "\",\"n\":" << refine_points[i].n
         << ",\"edges\":" << refine_points[i].edges
         << ",\"classes\":" << refine_points[i].classes
         << ",\"naive_ms\":" << refine_points[i].naive_ms
         << ",\"worklist_ms\":" << refine_points[i].worklist_ms
         << ",\"speedup\":" << refine_points[i].speedup << "}";
  }
  json << "],\"store\":[";
  for (std::size_t i = 0; i < store_points.size(); ++i) {
    const StorePoint& p = store_points[i];
    if (i != 0) json << ",";
    json << "{\"artifact\":\"" << p.artifact << "\",\"n\":" << family_n
         << ",\"bytes\":" << p.bytes
         << ",\"table_bytes\":" << p.table_bytes
         << ",\"encode_ms\":" << p.encode_ms
         << ",\"save_ms\":" << p.save_ms << ",\"load_ms\":" << p.load_ms
         << ",\"decode_ms\":" << p.decode_ms
         << ",\"encode_mb_s\":" << mb_per_s(p.bytes, p.encode_ms)
         << ",\"save_mb_s\":" << mb_per_s(p.bytes, p.save_ms)
         << ",\"load_mb_s\":" << mb_per_s(p.bytes, p.load_ms)
         << ",\"decode_mb_s\":" << mb_per_s(p.bytes, p.decode_ms) << "}";
  }
  json << "],\"scaling\":[";
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    if (i != 0) json << ",";
    json << "{\"threads\":" << scaling[i].threads
         << ",\"flat_ms\":" << scaling[i].flat_ms
         << ",\"nested_ms\":" << scaling[i].nested_ms
         << ",\"parks\":" << scaling[i].parks
         << ",\"wakeups\":" << scaling[i].wakeups << "}";
  }
  json << "]}";
  // JSON-lines update: other benches' datapoints (rdv_bench's
  // per-experiment timings) sharing this file are preserved.
  if (!rdv::support::update_bench_json(json_path, "micro_sweep",
                                       json.str())) {
    std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
