#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <optional>
#include <set>
#include <stdexcept>

#include "analysis/feasibility.hpp"
#include "analysis/steiner.hpp"
#include "analysis/stics.hpp"
#include "cache/artifact_cache.hpp"
#include "cache/fingerprint.hpp"
#include "core/pairing.hpp"
#include "core/universal_rv.hpp"
#include "graph/families/families.hpp"
#include "graph/families/qhat.hpp"
#include "graph/families/qhat_implicit.hpp"
#include "sim/engine.hpp"
#include "spans.hpp"
#include "store/codec.hpp"
#include "store/disk_store.hpp"
#include "support/splitmix.hpp"
#include "sweep/sweep.hpp"
#include "uxs/corpus.hpp"
#include "uxs/verifier.hpp"
#include "views/quotient.hpp"
#include "views/refinement.hpp"
#include "views/refinement_worklist.hpp"
#include "views/shrink.hpp"

namespace perfbench {
namespace {

namespace families = rdv::graph::families;
namespace fs = std::filesystem;
using rdv::graph::Graph;
using rdv::graph::Node;
using rdv::support::ThreadPool;

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

/// Order-dependent 64-bit digest (SplitMix64 finalizer per word).
class Digest {
 public:
  void add(std::uint64_t v) {
    std::uint64_t z = (h_ ^ v) + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    h_ = z ^ (z >> 31);
  }
  void add(const rdv::cache::GraphFingerprint& fp) {
    add(fp.hi);
    add(fp.lo);
    add(fp.n);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x243F6A8885A308D3ULL;
};

/// Adds one simulated STIC to a pass: the digest pins the exact run
/// (the "rounds and moves must not change" contract), the counts feed
/// the sim layer metrics.
void tally_run(PassOutcome& out, Digest& digest, const rdv::sim::RunResult& r) {
  digest.add(r.met ? 1 : 0);
  digest.add(r.meet_from_later_start);
  digest.add(r.moves[0]);
  digest.add(r.moves[1]);
  digest.add(r.rounds_simulated);
  out.sim_runs += 1;
  out.sim_moves += r.moves[0] + r.moves[1];
  out.sim_rounds += r.rounds_simulated;
}

rdv::sweep::SweepConfig sweep_config(ThreadPool& pool,
                                     rdv::cache::ArtifactCache* cache,
                                     std::size_t chunk_size) {
  rdv::sweep::SweepConfig config;
  config.pool = &pool;
  config.cache = cache;
  config.chunk_size = chunk_size;
  return config;
}

// ---------------------------------------------------------------------
// feasibility_sim: Corollary 3.1 checked by simulating UniversalRV.

/// One STIC per chunk, where T2 leaves feasibility_sweep at its default
/// of 64. At the default one thread runs a whole graph's runs while the
/// rest idle, so a pass's wall is one thread's time for the graphs it
/// picks up, which swings with the pickup order and that core's speed.
/// Spread over the pool, the wall follows the mean speed of all cores.
constexpr std::size_t kSticGrain = 1;

struct FeasibilityCase {
  Graph g;
  std::uint64_t max_delay = 0;
  std::uint64_t max_phases = 0;
  std::uint64_t max_rounds = 0;
};

class FeasibilitySim final : public Workload {
 public:
  explicit FeasibilitySim(const Options& options) : options_(options) {}

  SetupOutcome setup(ThreadPool&) override {
    SetupOutcome out;
    const std::uint64_t verifications = rdv::uxs::corpus_verification_count();
    cache_ = std::make_unique<rdv::cache::ArtifactCache>();
    // T2's graph set with its delays, phase caps and round caps.
    std::int64_t t0 = spans::now_ns();
    cases_.push_back({families::two_node_graph(), 2, 60, 1u << 22});
    cases_.push_back({families::oriented_ring(3), 2, 120, 1u << 23});
    cases_.push_back({families::path_graph(3), 1, 120, 1u << 23});
    if (!options_.tiny) {
      cases_.push_back({families::oriented_ring(4), 2, 150, 1u << 24});
      cases_.push_back(
          {families::symmetric_double_tree(1, 1), 1, 150, 1u << 24});
    }
    out.graph_gen_s += seconds_between(t0, spans::now_ns());

    // Seed-drawn port-scrambled graphs. A draw is kept only when the
    // corpus-verified Y(n) explores it (UniversalRV's guarantee needs
    // that); the phase cap is the latest guaranteed phase over its
    // feasible STICs, so every feasible STIC must meet by the cap.
    const std::uint32_t n = options_.tiny ? 3 : 4;
    const std::uint32_t max_extra = n * (n - 1) / 2 - (n - 1);
    rdv::support::SplitMix64 rng(options_.seed);
    for (int kind = 0; kind < 3; ++kind) {
      for (int attempt = 0;; ++attempt) {
        if (attempt == 1000) {
          throw std::runtime_error("no seeded graph the corpus UXS explores");
        }
        const std::uint64_t s = rng.next();
        const auto extra = static_cast<std::uint32_t>(s % (max_extra + 1));
        t0 = spans::now_ns();
        Graph g = kind == 0 ? families::scrambled_ring(n, s)
                            : families::random_connected(n, extra, s);
        out.graph_gen_s += seconds_between(t0, spans::now_ns());
        t0 = spans::now_ns();
        const auto y = cache_->uxs(n);
        out.uxs_verify_s += seconds_between(t0, spans::now_ns());
        if (!rdv::uxs::is_uxs_for(g, *y)) continue;
        cases_.push_back({std::move(g), 1, 0, 1u << 24});
        set_phase_cap(cases_.back());
        break;
      }
    }

    // Corpus-verify every Y(n) the capped phases will ask for.
    std::uint64_t max_phases = 0;
    for (const auto& c : cases_) {
      max_phases = std::max(max_phases, c.max_phases);
    }
    std::set<std::uint32_t> sizes;
    for (std::uint64_t p = 1; p <= max_phases; ++p) {
      const auto t = rdv::core::phase_decode(p);
      if (t.d < t.n) sizes.insert(static_cast<std::uint32_t>(t.n));
    }
    t0 = spans::now_ns();
    for (const std::uint32_t size : sizes) (void)cache_->uxs(size);
    out.uxs_verify_s += seconds_between(t0, spans::now_ns());
    out.uxs_verifications =
        rdv::uxs::corpus_verification_count() - verifications;
    // Every pass then finds its partitions in the memory tier.
    for (const auto& c : cases_) (void)cache_->view_classes(c.g);
    return out;
  }

  PassOutcome pass(ThreadPool& pool, bool decomposed) override {
    PassOutcome out;
    const std::uint64_t calls = provider_calls_.load();
    const rdv::cache::CacheStats before = cache_->stats();
    std::vector<rdv::analysis::SweepSummary> summaries;
    out.start = stamp();
    if (!decomposed) {
      summaries = rdv::sweep::sweep_map<rdv::analysis::SweepSummary>(
          cases_.size(),
          [&](std::size_t i) {
            const FeasibilityCase& c = cases_[i];
            return rdv::sweep::feasibility_sweep(
                c.g, c.max_delay, program(c), run_config(c),
                sweep_config(pool, cache_.get(), kSticGrain));
          },
          sweep_config(pool, cache_.get(), 1));
    } else {
      spans::Scope outer("sweep", "graphs", cases_.size());
      const std::uint32_t parent = outer.id();
      summaries = rdv::sweep::sweep_map<rdv::analysis::SweepSummary>(
          cases_.size(),
          [&](std::size_t i) {
            spans::Scope task("task", "graph", i, parent);
            return decomposed_sweep(pool, i);
          },
          sweep_config(pool, cache_.get(), 1));
    }
    out.end = stamp();
    Digest digest;
    for (const auto& summary : summaries) {
      for (const auto& check : summary.checks) {
        out.stics += 1;
        if (!check.consistent) out.failed += 1;
        digest.add(check.cls.stic.u);
        digest.add(check.cls.stic.v);
        digest.add(check.cls.stic.delay);
        digest.add(check.cls.feasible ? 1 : 0);
        tally_run(out, digest, check.run);
      }
    }
    out.digest = digest.value();
    out.uxs_calls = provider_calls_.load() - calls;
    const rdv::cache::CacheStats after = cache_->stats();
    out.cache_hits = after.total_hits() - before.total_hits();
    out.cache_misses = after.total_misses() - before.total_misses();
    return out;
  }

  [[nodiscard]] std::uint64_t inputs_digest() const override {
    Digest digest;
    for (const auto& c : cases_) {
      digest.add(rdv::cache::fingerprint(c.g));
      digest.add(c.max_delay);
      digest.add(c.max_phases);
      digest.add(c.max_rounds);
    }
    return digest.value();
  }

  FinalCheck final_check() override { return {}; }

  double cache_hit_ns() override {
    std::vector<rdv::cache::GraphFingerprint> fps;
    for (const auto& c : cases_) fps.push_back(rdv::cache::fingerprint(c.g));
    constexpr std::size_t kLookups = 200000;
    const std::int64_t t0 = spans::now_ns();
    for (std::size_t i = 0; i < kLookups; ++i) {
      const std::size_t c = i % cases_.size();
      (void)cache_->view_classes(cases_[c].g, fps[c]);
    }
    return static_cast<double>(spans::now_ns() - t0) / kLookups;
  }

 private:
  void set_phase_cap(FeasibilityCase& c) {
    const auto classes = cache_->view_classes(c.g);
    const auto shrink = cache_->all_pairs_shrink(c.g);
    const std::uint64_t n = c.g.size();
    for (const auto& stic : rdv::analysis::enumerate_stics(c.g, c.max_delay)) {
      const bool sym = classes->symmetric(stic.u, stic.v);
      const std::uint32_t s = shrink->at(stic.u, stic.v);
      if (sym && stic.delay < s) continue;  // infeasible: runs to the cap
      c.max_phases = std::max(
          c.max_phases,
          sym ? rdv::core::guaranteed_phase_symmetric(n, s, stic.delay)
              : rdv::core::guaranteed_phase_nonsymmetric(n, stic.delay));
    }
  }

  rdv::sim::AgentProgram program(const FeasibilityCase& c) {
    spans::Scope span("core", "universal_rv_program");
    rdv::core::UniversalOptions options;
    options.max_phases = c.max_phases;
    options.provider = [this](std::uint32_t n) {
      spans::Scope span("uxs", "provider", n);
      provider_calls_.fetch_add(1, std::memory_order_relaxed);
      return *cache_->uxs(n);
    };
    return rdv::core::universal_rv_program(options);
  }

  static rdv::sim::RunConfig run_config(const FeasibilityCase& c) {
    rdv::sim::RunConfig config;
    config.max_rounds = c.max_rounds;
    return config;
  }

  /// The public calls sweep::feasibility_sweep makes, one span each.
  rdv::analysis::SweepSummary decomposed_sweep(ThreadPool& pool,
                                               std::size_t i) {
    const FeasibilityCase& c = cases_[i];
    std::shared_ptr<const rdv::views::ViewClasses> classes;
    {
      spans::Scope span("cache", "view_classes");
      classes = cache_->view_classes(c.g);
    }
    std::vector<rdv::analysis::Stic> stics;
    {
      spans::Scope span("analysis", "enumerate_stics");
      stics = rdv::analysis::enumerate_stics(c.g, c.max_delay);
    }
    const rdv::sim::AgentProgram prog = program(c);
    const rdv::sim::RunConfig config = run_config(c);
    rdv::analysis::SweepSummary summary;
    spans::Scope sweep("sweep", "stics", i);
    const std::uint32_t parent = sweep.id();
    summary.checks = rdv::sweep::sweep_map<rdv::analysis::SticCheck>(
        stics.size(),
        [&](std::size_t j) {
          spans::Scope item("task", "stic", j, parent);
          rdv::analysis::SticCheck check;
          {
            spans::Scope span("analysis", "classify_stic");
            check.cls = rdv::analysis::classify_stic(c.g, *classes, stics[j]);
          }
          {
            spans::Scope span("sim", "run_anonymous");
            check.run = rdv::sim::run_anonymous(c.g, prog, stics[j].u,
                                                stics[j].v, stics[j].delay,
                                                config);
          }
          check.consistent =
              check.run.ok() && (check.run.met == check.cls.feasible);
          return check;
        },
        sweep_config(pool, cache_.get(), kSticGrain));
    return summary;
  }

  Options options_;
  std::vector<FeasibilityCase> cases_;
  std::unique_ptr<rdv::cache::ArtifactCache> cache_;
  std::atomic<std::uint64_t> provider_calls_{0};
};

// ---------------------------------------------------------------------
// census_cold / census_warm: every ordered STIC classified by
// Corollary 3.1 from cached view classes and the all-pairs Shrink table.

struct CensusRow {
  std::uint64_t n = 0;
  std::uint64_t edges = 0;
  std::uint64_t classes = 0;
  std::uint64_t pairs = 0;
  std::uint64_t symmetric = 0;
  std::uint64_t stics = 0;
  std::uint64_t feasible = 0;
  std::uint64_t max_shrink = 0;

  friend bool operator==(const CensusRow&, const CensusRow&) = default;
};

constexpr std::uint64_t kCensusMaxDelay = 3;
constexpr std::uint32_t kOracleMaxN = 40;

template <typename SymmetricFn, typename ShrinkFn>
CensusRow tally_census(const Graph& g, std::uint64_t classes,
                     SymmetricFn symmetric, ShrinkFn shrink) {
  CensusRow row;
  row.n = g.size();
  row.edges = g.edge_count();
  row.classes = classes;
  for (Node u = 0; u < g.size(); ++u) {
    for (Node v = 0; v < g.size(); ++v) {
      if (u == v) continue;
      ++row.pairs;
      const bool sym = symmetric(u, v);
      const std::uint64_t s = shrink(u, v);
      row.max_shrink = std::max(row.max_shrink, s);
      if (!sym) {
        row.feasible += kCensusMaxDelay + 1;
      } else {
        ++row.symmetric;
        if (s <= kCensusMaxDelay) row.feasible += kCensusMaxDelay + 1 - s;
      }
    }
  }
  row.stics = row.pairs * (kCensusMaxDelay + 1);
  return row;
}

CensusRow census_row(const Graph& g, const rdv::views::ViewClasses& classes,
                     const rdv::views::QuotientGraph& quotient,
                     const rdv::views::AllPairsShrink& all) {
  return tally_census(
      g, quotient.class_count(),
      [&](Node u, Node v) { return classes.symmetric(u, v); },
      [&](Node u, Node v) { return all.at(u, v); });
}

/// ArtifactCache's read-through/write-behind step, issued as separate
/// public store calls so each one gets its own span.
template <typename T, typename Encode, typename Decode, typename Compute>
T through_store(rdv::store::DiskStore& disk, rdv::store::Kind kind,
                const std::string& key, Encode encode, Decode decode,
                Compute compute) {
  std::optional<std::string> payload;
  {
    spans::Scope span("store", "load");
    payload = disk.load(kind, key);
  }
  if (payload) {
    spans::Scope span("store", "decode", payload->size());
    try {
      return decode(*payload);
    } catch (const rdv::store::CodecError&) {
    }
  }
  T value = compute();
  spans::Scope span("store", "save");
  (void)disk.save(kind, key, encode(value));
  return value;
}

class Census final : public Workload {
 public:
  Census(const Options& options, bool warm) : options_(options), warm_(warm) {}

  ~Census() override {
    std::error_code ec;
    if (!warm_dir_.empty()) fs::remove_all(warm_dir_, ec);
  }

  SetupOutcome setup(ThreadPool& pool) override {
    SetupOutcome out;
    const std::int64_t t0 = spans::now_ns();
    generate_graphs();
    out.graph_gen_s = seconds_between(t0, spans::now_ns());
    if (warm_) {
      // Fill one store with a cold pass; its rows are census_cold's rows
      // for this seed, which every warm pass must reproduce.
      warm_dir_ = fresh_dir();
      auto disk = open_store(warm_dir_);
      rdv::cache::ArtifactCache cache(cache_config(disk));
      reference_ = cached_rows(pool, cache);
    }
    return out;
  }

  PassOutcome pass(ThreadPool& pool, bool decomposed) override {
    PassOutcome out;
    const std::string dir = warm_ ? warm_dir_ : fresh_dir();
    const std::uint64_t refines = rdv::views::refine_worklist_compute_count();
    const std::uint64_t tables = rdv::views::shrink_all_pairs_compute_count();
    const std::uint64_t uxs = rdv::uxs::corpus_verification_count();
    std::vector<CensusRow> rows;
    std::shared_ptr<rdv::store::DiskStore> disk;
    std::unique_ptr<rdv::cache::ArtifactCache> cache;
    std::vector<Artifacts> keep;
    out.start = stamp();
    {
      spans::Scope span("store", "open");
      disk = open_store(dir);
    }
    if (!decomposed) {
      cache = std::make_unique<rdv::cache::ArtifactCache>(cache_config(disk));
      rows = cached_rows(pool, *cache);
    } else {
      rows = decomposed_rows(pool, *disk, keep);
    }
    out.end = stamp();
    if (!warm_) {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
    const rdv::store::DiskStats disk_stats = disk->total_stats();
    out.store_bytes_written = disk_stats.bytes_written;
    out.store_bytes_read = disk_stats.bytes;
    if (cache != nullptr) {
      const rdv::cache::CacheStats cache_stats = cache->stats();
      out.cache_hits = cache_stats.total_hits();
      out.cache_misses = cache_stats.total_misses();
      last_cache_ = std::move(cache);
    }

    if (reference_.empty()) reference_ = rows;
    Digest digest;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const CensusRow& row = rows[i];
      out.stics += row.stics;
      if (i >= reference_.size() || !(row == reference_[i]) ||
          row.feasible > row.stics) {
        out.failed += row.stics;
      }
      for (const std::uint64_t field :
           {row.n, row.edges, row.classes, row.pairs, row.symmetric,
            row.stics, row.feasible, row.max_shrink}) {
        digest.add(field);
      }
    }
    // No store this benchmark wrote itself may read back corrupt, and a
    // warm pass must be served entirely by the store.
    if (disk_stats.corrupt != 0 ||
        (warm_ && (rdv::views::refine_worklist_compute_count() != refines ||
                   rdv::views::shrink_all_pairs_compute_count() != tables ||
                   rdv::uxs::corpus_verification_count() != uxs))) {
      out.failed = out.stics;
    }
    out.digest = digest.value();
    return out;
  }

  [[nodiscard]] std::uint64_t inputs_digest() const override {
    Digest digest;
    for (const auto& fp : fps_) digest.add(fp);
    return digest.value();
  }

  /// Rows of the small graphs against an independent oracle: the naive
  /// refinement engine and one product BFS per pair.
  FinalCheck final_check() override {
    FinalCheck check;
    for (std::size_t i = 0; i < graphs_.size(); ++i) {
      const Graph& g = graphs_[i];
      if (g.size() > kOracleMaxN) continue;
      const rdv::views::ViewClasses naive =
          rdv::views::compute_view_classes_naive(g);
      const CensusRow oracle = tally_census(
          g, naive.class_count,
          [&](Node u, Node v) { return naive.symmetric(u, v); },
          [&](Node u, Node v) {
            return rdv::views::shrink_with_witness(g, u, v).shrink;
          });
      check.attempted += oracle.stics;
      if (i >= reference_.size() || !(oracle == reference_[i])) {
        check.failed += oracle.stics;
      }
    }
    return check;
  }

  double cache_hit_ns() override {
    if (last_cache_ == nullptr) return 0;
    constexpr std::size_t kLookups = 200000;
    const std::int64_t t0 = spans::now_ns();
    for (std::size_t i = 0; i < kLookups; ++i) {
      const std::size_t g = i % graphs_.size();
      (void)last_cache_->all_pairs_shrink(graphs_[g], fps_[g]);
    }
    return static_cast<double>(spans::now_ns() - t0) / kLookups;
  }

 private:
  void generate_graphs() {
    // C1's census sizes with seed-drawn edges, then symmetric families
    // of similar n: the random graphs have no symmetric pair at all, so
    // without these no nontrivial Shrink would ever be classified.
    static constexpr std::uint32_t kFull[][2] = {
        {6, 2},     {7, 4},     {8, 5},      {10, 8},    {12, 10},
        {16, 16},   {20, 24},   {24, 30},    {32, 48},   {40, 70},
        {100, 160}, {200, 340}, {256, 440},  {512, 900}, {1024, 1792}};
    static constexpr std::uint32_t kTiny[][2] = {
        {6, 2}, {7, 4}, {8, 5}, {10, 8}, {20, 24}, {40, 70}};
    rdv::support::SplitMix64 rng(options_.seed);
    const auto add_random = [&](const auto& sizes) {
      for (const auto& [n, extra] : sizes) {
        graphs_.push_back(families::random_connected(n, extra, rng.next()));
      }
    };
    if (options_.tiny) {
      add_random(kTiny);
    } else {
      add_random(kFull);
    }
    graphs_.push_back(families::symmetric_double_tree(2, 3));
    graphs_.push_back(families::oriented_torus(5, 6));
    graphs_.push_back(families::hypercube(5));
    if (!options_.tiny) {
      graphs_.push_back(families::oriented_torus(32, 32));
      graphs_.push_back(families::hypercube(10));
      graphs_.push_back(families::symmetric_double_tree(2, 8));
    }
    for (const Graph& g : graphs_) fps_.push_back(rdv::cache::fingerprint(g));
  }

  /// A directory no other workload object of this process uses: a run
  /// keeps two census objects alive at once while it times set-up.
  std::string fresh_dir() {
    static std::atomic<std::uint64_t> seq{0};
    return options_.work_dir + "/" + (warm_ ? "warm-" : "cold-") +
           std::to_string(seq.fetch_add(1));
  }

  static std::shared_ptr<rdv::store::DiskStore> open_store(
      const std::string& dir) {
    rdv::store::DiskConfig config;
    config.root = dir;
    return std::make_shared<rdv::store::DiskStore>(config);
  }

  static rdv::cache::CacheConfig cache_config(
      std::shared_ptr<rdv::store::DiskStore> disk) {
    rdv::cache::CacheConfig config;
    config.disk = std::move(disk);
    return config;
  }

  std::vector<CensusRow> cached_rows(ThreadPool& pool,
                                     rdv::cache::ArtifactCache& cache) {
    return rdv::sweep::sweep_map<CensusRow>(
        graphs_.size(),
        [&](std::size_t i) {
          const Graph& g = graphs_[i];
          const auto classes = cache.view_classes(g, fps_[i]);
          const auto quotient = cache.quotient(g, fps_[i]);
          const auto all = cache.all_pairs_shrink(g, fps_[i]);
          return census_row(g, *classes, *quotient, *all);
        },
        sweep_config(pool, &cache, 1));
  }

  /// One graph's artifacts. A decomposed pass keeps them alive until the
  /// pass has been timed, as the cache of a plain pass does.
  struct Artifacts {
    rdv::views::ViewClasses classes;
    rdv::views::QuotientGraph quotient;
    rdv::views::AllPairsShrink all;
  };

  /// The calls ArtifactCache makes on a memory miss, one span each.
  std::vector<CensusRow> decomposed_rows(ThreadPool& pool,
                                         rdv::store::DiskStore& disk,
                                         std::vector<Artifacts>& keep) {
    namespace st = rdv::store;
    keep.resize(graphs_.size());
    spans::Scope outer("sweep", "graphs", graphs_.size());
    const std::uint32_t parent = outer.id();
    return rdv::sweep::sweep_map<CensusRow>(
        graphs_.size(),
        [&](std::size_t i) {
          spans::Scope task("task", "graph", i, parent);
          const Graph& g = graphs_[i];
          std::string key;
          {
            spans::Scope span("cache", "disk_key");
            key = rdv::cache::ArtifactCache::disk_key(fps_[i]);
          }
          auto& [classes, quotient, all] = keep[i];
          classes = through_store<rdv::views::ViewClasses>(
              disk, st::Kind::kViewClasses, key, st::encode_view_classes,
              st::decode_view_classes, [&] {
                spans::Scope span("views", "refine", g.size());
                return rdv::views::compute_view_classes(g);
              });
          quotient = through_store<rdv::views::QuotientGraph>(
              disk, st::Kind::kQuotients, key, st::encode_quotient,
              st::decode_quotient, [&] {
                spans::Scope span("views", "quotient", g.size());
                return rdv::views::build_quotient(g, classes);
              });
          all = through_store<rdv::views::AllPairsShrink>(
              disk, st::Kind::kShrinkAllPairs, key,
              st::encode_all_pairs_shrink, st::decode_all_pairs_shrink, [&] {
                spans::Scope span("views", "shrink_all_pairs",
                                  std::uint64_t{g.size()} * g.size());
                return rdv::views::shrink_all_pairs(g);
              });
          // The census tally is the harness's own work (rdv's census
          // scenario does it inline), so it is named as such.
          spans::Scope span("bench", "census_tally");
          return census_row(g, classes, quotient, all);
        },
        sweep_config(pool, nullptr, 1));
  }

  Options options_;
  bool warm_;
  std::vector<Graph> graphs_;
  std::vector<rdv::cache::GraphFingerprint> fps_;
  std::vector<CensusRow> reference_;
  std::string warm_dir_;
  std::unique_ptr<rdv::cache::ArtifactCache> last_cache_;
};

// ---------------------------------------------------------------------
// qhat_lowerbound: Theorem 4.1's construction, fixed by the theorem.

struct QhatK {
  std::vector<rdv::sim::RunResult> runs;
  std::uint64_t materialized = 0;
};

QhatK run_qhat_k(const rdv::graph::ITopology& topo, Node root,
                 std::uint32_t k) {
  std::vector<Node> z;
  {
    spans::Scope span("graph", "qhat_z_set", k);
    z = families::qhat_z_set(topo, root, k);
  }
  const rdv::sim::AgentProgram program = [&] {
    spans::Scope span("analysis", "dedicated_z_program", k);
    return rdv::analysis::dedicated_z_program(k);
  }();
  rdv::sim::RunConfig config;
  config.max_rounds = 64ull * k * (std::uint64_t{2} << k);
  QhatK out;
  out.runs.reserve(z.size());
  for (const Node v : z) {
    spans::Scope span("sim", "run_anonymous", k);
    out.runs.push_back(
        rdv::sim::run_anonymous(topo, program, root, v, 2 * k, config));
  }
  return out;
}

class QhatLowerBound final : public Workload {
 public:
  explicit QhatLowerBound(const Options& options)
      : max_k_(options.tiny ? 4 : 8) {}

  SetupOutcome setup(ThreadPool&) override {
    // The explicit graphs are the oracle for the lazily interned
    // topology on the ks small enough to materialize.
    SetupOutcome out;
    const std::int64_t t0 = spans::now_ns();
    for (std::uint32_t k = 1; k <= kExplicitMaxK; ++k) {
      explicit_.push_back(families::qhat_explicit(4 * k));
    }
    out.graph_gen_s = seconds_between(t0, spans::now_ns());
    return out;
  }

  /// Plain and decomposed passes run the same code: the spans only record
  /// when the runner has switched them on.
  PassOutcome pass(ThreadPool& pool, bool) override {
    PassOutcome out;
    out.start = stamp();
    std::vector<QhatK> ks;
    {
      spans::Scope outer("sweep", "ks", max_k_);
      const std::uint32_t parent = outer.id();
      ks = rdv::sweep::sweep_map<QhatK>(
          max_k_,
          [&](std::size_t i) {
            spans::Scope task("task", "k", i + 1, parent);
            const auto k = static_cast<std::uint32_t>(i + 1);
            std::optional<families::QhatImplicitTopology> topo;
            {
              spans::Scope span("graph", "qhat_topology", k);
              topo.emplace(4 * k);
            }
            QhatK result = run_qhat_k(*topo, topo->root(), k);
            result.materialized = topo->materialized();
            spans::Scope span("graph", "qhat_release", k);
            topo.reset();
            return result;
          },
          sweep_config(pool, nullptr, 1));
    }
    out.end = stamp();
    Digest digest;
    for (std::size_t i = 0; i < ks.size(); ++i) {
      const auto k = static_cast<std::uint32_t>(i + 1);
      std::uint64_t worst = 0;
      for (const auto& r : ks[i].runs) {
        out.stics += 1;
        if (!r.met || !r.ok()) out.failed += 1;
        worst = std::max(worst, r.meet_from_later_start);
        tally_run(out, digest, r);
      }
      const std::uint64_t predicted =
          rdv::analysis::dedicated_z_predicted_rounds(
              k, rdv::analysis::midpoint_count(k));
      if (worst < rdv::analysis::theorem41_lower_bound(k) ||
          worst > predicted) {
        out.failed += ks[i].runs.size();
      }
      out.qhat_materialized += ks[i].materialized;
    }
    out.digest = digest.value();
    last_ = std::move(ks);
    return out;
  }

  [[nodiscard]] std::uint64_t inputs_digest() const override {
    Digest digest;
    digest.add(max_k_);
    return digest.value();
  }

  /// The same Z runs on the explicit graph must match the implicit
  /// topology's runs move for move.
  FinalCheck final_check() override {
    FinalCheck check;
    for (std::uint32_t k = 1; k <= kExplicitMaxK && k <= last_.size(); ++k) {
      const auto& q = explicit_[k - 1];
      const QhatK oracle = run_qhat_k(q.graph, q.root, k);
      const auto& runs = last_[k - 1].runs;
      check.attempted += oracle.runs.size();
      for (std::size_t j = 0; j < oracle.runs.size(); ++j) {
        const auto& a = oracle.runs[j];
        const bool same = j < runs.size() && a.met == runs[j].met &&
                          a.meet_from_later_start ==
                              runs[j].meet_from_later_start &&
                          a.moves == runs[j].moves &&
                          a.rounds_simulated == runs[j].rounds_simulated;
        if (!same) check.failed += 1;
      }
    }
    return check;
  }

  double cache_hit_ns() override { return 0; }

 private:
  static constexpr std::uint32_t kExplicitMaxK = 2;
  std::uint32_t max_k_;
  std::vector<families::QhatGraph> explicit_;
  std::vector<QhatK> last_;
};

}  // namespace

Stamp stamp() {
  Stamp s;
  s.wall_ns = spans::now_ns();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto sec = usage.ru_utime.tv_sec + usage.ru_stime.tv_sec;
  const auto usec = usage.ru_utime.tv_usec + usage.ru_stime.tv_usec;
  s.cpu_s = static_cast<double>(sec) + static_cast<double>(usec) / 1e6;
  return s;
}

std::vector<std::string> workload_names() {
  return {"feasibility_sim", "census_cold", "census_warm", "qhat_lowerbound"};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& options) {
  if (name == "feasibility_sim") {
    return std::make_unique<FeasibilitySim>(options);
  }
  if (name == "census_cold") return std::make_unique<Census>(options, false);
  if (name == "census_warm") return std::make_unique<Census>(options, true);
  if (name == "qhat_lowerbound") {
    return std::make_unique<QhatLowerBound>(options);
  }
  return nullptr;
}

}  // namespace perfbench
