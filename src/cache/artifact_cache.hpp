#pragma once

#include <cstdint>
#include <memory>

#include "cache/fingerprint.hpp"
#include "cache/memo_store.hpp"
#include "graph/graph.hpp"
#include "store/disk_store.hpp"
#include "uxs/uxs.hpp"
#include "views/quotient.hpp"
#include "views/refinement.hpp"
#include "views/shrink.hpp"

/// Concurrent per-graph artifact cache (ISSUE 2 tentpole).
///
/// Sweep workloads evaluate thousands of (u, v, delay) cases over a
/// handful of distinct graphs; the expensive per-GRAPH artifacts —
/// ViewClasses partition refinement (O(n^2 m)), quotient graphs, and
/// corpus-verified UXS construction — are pure functions of the graph
/// structure (resp. the size n), so they are computed once per distinct
/// fingerprint and shared as shared_ptr<const T> across all threads of
/// all sweeps. Determinism contract: every artifact is a deterministic
/// function of its key, so sweep output is byte-identical with the
/// cache enabled, disabled, or at any thread count — the cache can only
/// change WHEN artifacts are computed, never their values.
namespace rdv::cache {

struct CacheConfig {
  /// When false, nothing is retained and every request recomputes —
  /// the reference configuration for determinism tests.
  bool enabled = true;
  /// Persistent second tier (ISSUE 4): on a memory miss the compute
  /// path first consults the disk store (read-through) and persists
  /// freshly computed artifacts (write-behind, atomic temp+rename).
  /// nullptr = memory-only. Artifacts are pure functions of their keys
  /// and the codec is deterministic, so the disk tier — like the memory
  /// tier — can only change WHEN artifacts are computed, never their
  /// values; a corrupt or version-mismatched file degrades to
  /// recompute. Shared so several caches may back onto one store.
  std::shared_ptr<store::DiskStore> disk;
};

struct CacheStats {
  StoreStats view_classes;
  StoreStats quotients;
  StoreStats uxs;
  StoreStats all_pairs_shrink;

  [[nodiscard]] std::uint64_t total_hits() const {
    return view_classes.hits + quotients.hits + uxs.hits +
           all_pairs_shrink.hits;
  }
  [[nodiscard]] std::uint64_t total_misses() const {
    return view_classes.misses + quotients.misses + uxs.misses +
           all_pairs_shrink.misses;
  }
  [[nodiscard]] std::uint64_t total_bytes() const {
    return view_classes.bytes + quotients.bytes + uxs.bytes +
           all_pairs_shrink.bytes;
  }
};

/// Thread-safe memoizing store for the four artifact kinds. Share one
/// instance across every sweep touching the same graphs (the default
/// entry points below use a process-global instance). Computed
/// artifacts stay resident for the cache's lifetime.
class ArtifactCache {
 public:
  explicit ArtifactCache(const CacheConfig& config = {});

  /// View-equivalence partition of g, computed at most once per
  /// structural fingerprint. The overloads taking a precomputed
  /// fingerprint skip the O(n+m) re-hash — resolve fingerprint(g) once
  /// per graph when a sweep kernel looks artifacts up per case.
  [[nodiscard]] std::shared_ptr<const views::ViewClasses> view_classes(
      const graph::Graph& g);
  [[nodiscard]] std::shared_ptr<const views::ViewClasses> view_classes(
      const graph::Graph& g, const GraphFingerprint& fp);

  /// Quotient of g by view equivalence; resolves the partition through
  /// the view-classes store (reusing one fingerprint for both), so a
  /// quotient miss warms both.
  [[nodiscard]] std::shared_ptr<const views::QuotientGraph> quotient(
      const graph::Graph& g);
  [[nodiscard]] std::shared_ptr<const views::QuotientGraph> quotient(
      const graph::Graph& g, const GraphFingerprint& fp);

  /// Corpus-verified UXS for size n (uxs::corpus_verified_uxs), keyed
  /// by n.
  [[nodiscard]] std::shared_ptr<const uxs::Uxs> uxs(std::uint32_t n);

  /// Batched all-pairs Shrink table of g (views::shrink_all_pairs),
  /// keyed by fingerprint alone: the one Shrink source of every
  /// production path (classification, census, experiment kernels).
  /// Same two-tier behavior as the other per-graph artifacts.
  [[nodiscard]] std::shared_ptr<const views::AllPairsShrink>
  all_pairs_shrink(const graph::Graph& g);
  [[nodiscard]] std::shared_ptr<const views::AllPairsShrink>
  all_pairs_shrink(const graph::Graph& g, const GraphFingerprint& fp);

  [[nodiscard]] CacheStats stats() const;
  /// The persistent tier, or nullptr when memory-only.
  [[nodiscard]] store::DiskStore* disk() const noexcept {
    return config_.disk.get();
  }

  /// Disk-store key string (filename-safe) of a per-graph artifact
  /// ("n<k>" keys UXS sizes). Built via std::string — no fixed-width
  /// buffer, so no key component can ever be truncated into a
  /// colliding prefix (public so tests can pin that property on
  /// adversarially wide keys).
  [[nodiscard]] static std::string disk_key(const GraphFingerprint& fp);

 private:
  CacheConfig config_;
  MemoStore<GraphFingerprint, views::ViewClasses, FingerprintHash>
      view_classes_;
  MemoStore<GraphFingerprint, views::QuotientGraph, FingerprintHash>
      quotients_;
  MemoStore<std::uint32_t, uxs::Uxs> uxs_;
  MemoStore<GraphFingerprint, views::AllPairsShrink, FingerprintHash>
      all_pairs_shrink_;
};

/// Process-global cache used when no explicit cache is supplied.
/// It keeps the CacheConfig defaults. Knobs (read once, at first use):
/// RDV_STORE_DIR attaches the persistent disk tier (RDV_STORE_SALT
/// overrides its build salt, RDV_STORE_READONLY serves hits without
/// writing).
[[nodiscard]] ArtifactCache& global_cache();

/// Typed entry points: resolve through `cache`, or through
/// global_cache() when cache is nullptr.
[[nodiscard]] std::shared_ptr<const views::ViewClasses> cached_view_classes(
    const graph::Graph& g, ArtifactCache* cache = nullptr);
[[nodiscard]] std::shared_ptr<const views::QuotientGraph> cached_quotient(
    const graph::Graph& g, ArtifactCache* cache = nullptr);
[[nodiscard]] std::shared_ptr<const uxs::Uxs> cached_uxs(
    std::uint32_t n, ArtifactCache* cache = nullptr);
[[nodiscard]] std::shared_ptr<const views::AllPairsShrink>
cached_all_pairs_shrink(const graph::Graph& g, ArtifactCache* cache = nullptr);

/// uxs::UxsProvider resolving through `cache` (nullptr: the global
/// cache) — the canonical provider for the algorithms in core/
/// (deterministic, so both anonymous agents derive identical
/// sequences). The returned provider holds the raw pointer: a non-null
/// `cache` must outlive every copy of the provider (pass nullptr when
/// stashing it in long-lived options).
[[nodiscard]] uxs::UxsProvider cached_uxs_provider(
    ArtifactCache* cache = nullptr);

}  // namespace rdv::cache
