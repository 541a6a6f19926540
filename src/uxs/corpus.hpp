#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "uxs/uxs.hpp"

/// Corpus-verified UXS construction (DESIGN.md §2.1).
///
/// standard_corpus(n) gathers every library family instance of size
/// exactly n plus seeded random connected graphs; corpus_verified_uxs(n)
/// deterministically grows a fixed-seed pseudorandom stream until it
/// covers the whole corpus. The result is typically dramatically
/// shorter than worst-case constructions, which matters because
/// SymmRV's cost is multiplicative in the UXS length (Lemma 3.3).
/// Memoization lives one layer up: cache::cached_uxs /
/// cache::cached_uxs_provider resolve these through the process-global
/// artifact cache.
namespace rdv::uxs {

/// All library graphs of size exactly n: ring variants, path, complete,
/// torus/hypercube/trees/Q-hat when n matches their size formulas, and
/// `random_instances` seeded random connected graphs at several
/// densities. n >= 2.
[[nodiscard]] std::vector<graph::Graph> standard_corpus(
    std::uint32_t n, std::uint32_t random_instances = 6);

/// Smallest power-of-two-length fixed-seed stream (doubling from
/// max(8, 2n)) that covers every corpus graph from every start; throws
/// std::runtime_error if none up to max_length works (never observed;
/// the bound exists to keep the search total).
[[nodiscard]] Uxs corpus_verified_uxs(std::uint32_t n,
                                      std::uint64_t seed = kDefaultSeed,
                                      std::size_t max_length = 1u << 22);

/// The uxs.corpus_verifications registry counter: corpus_verified_uxs
/// invocations (full corpus verifications actually performed, cache
/// and store hits excluded), read by the perfbench harness. The
/// warm-store CI job asserts a second invocation performs ZERO.
[[nodiscard]] std::uint64_t corpus_verification_count();

/// Smallest doubling-length fixed-seed stream covering one specific
/// graph (for experiments whose arena is known up front — e.g. sweeps
/// over seeded random graphs outside the standard corpus). Starts at
/// the cached corpus-verified sequence's length when available.
[[nodiscard]] Uxs covering_uxs(const graph::Graph& g,
                               std::uint64_t seed = kDefaultSeed,
                               std::size_t max_length = 1u << 22);

}  // namespace rdv::uxs
