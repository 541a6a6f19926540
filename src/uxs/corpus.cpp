#include "uxs/corpus.hpp"

#include <stdexcept>

#include "graph/families/families.hpp"
#include "graph/families/qhat.hpp"
#include "obs/metrics.hpp"
#include "uxs/verifier.hpp"

namespace rdv::uxs {

using graph::Graph;
namespace families = rdv::graph::families;

std::vector<Graph> standard_corpus(std::uint32_t n,
                                   std::uint32_t random_instances) {
  if (n < 2) throw std::invalid_argument("standard_corpus: n >= 2");
  std::vector<Graph> corpus;
  corpus.push_back(families::path_graph(n));
  corpus.push_back(families::complete(n));
  if (n >= 3) {
    corpus.push_back(families::oriented_ring(n));
    corpus.push_back(families::scrambled_ring(n, /*seed=*/11));
    corpus.push_back(families::scrambled_ring(n, /*seed=*/12));
    corpus.push_back(families::star(n));
    corpus.push_back(families::complete_bipartite(n / 2, n - n / 2));
  }
  if (n >= 6 && n % 2 == 0) {
    corpus.push_back(families::ring_with_chord(n));
  }
  for (std::uint32_t w = 2; w * 2 <= n; ++w) {
    if (n % w == 0 && n / w >= 2 && n / w >= w) {
      corpus.push_back(families::grid(w, n / w));
      break;  // one grid aspect suffices
    }
  }
  // Families with constrained size formulas.
  for (std::uint32_t w = 3; w * 3 <= n; ++w) {
    if (n % w == 0 && n / w >= 3) {
      corpus.push_back(families::oriented_torus(w, n / w));
      break;  // one torus aspect is enough for the corpus
    }
  }
  for (std::uint32_t dim = 1; (1u << dim) <= n; ++dim) {
    if ((1u << dim) == n) corpus.push_back(families::hypercube(dim));
  }
  for (std::uint32_t b = 1; b <= 4; ++b) {
    for (std::uint32_t t = 1; t <= 10; ++t) {
      std::uint64_t size = 1;
      std::uint64_t level = 1;
      for (std::uint32_t i = 0; i < t; ++i) {
        level *= b;
        size += level;
      }
      if (size == n) corpus.push_back(families::balanced_tree(b, t));
      if (2 * size == n) {
        corpus.push_back(families::symmetric_double_tree(b, t));
      }
      if (size > n) break;
    }
  }
  for (std::uint32_t h = 2; h <= 6; ++h) {
    if (families::qhat_size(h) == n) {
      corpus.push_back(families::qhat_explicit(h).graph);
    }
  }
  // Seeded random graphs across densities.
  const std::uint64_t max_extra =
      static_cast<std::uint64_t>(n) * (n - 1) / 2 - (n - 1);
  for (std::uint32_t i = 0; i < random_instances; ++i) {
    const std::uint32_t extra = static_cast<std::uint32_t>(
        max_extra == 0 ? 0 : (max_extra * i) / std::max(1u, 2 * random_instances));
    corpus.push_back(families::random_connected(n, extra, /*seed=*/100 + i));
  }
  return corpus;
}

namespace {
// Registered at load: CI asserts it reads 0 on a warm-store run.
obs::Counter& corpus_verifications =
    obs::counter("uxs.corpus_verifications");
}  // namespace

std::uint64_t corpus_verification_count() {
  return corpus_verifications.value();
}

Uxs corpus_verified_uxs(std::uint32_t n, std::uint64_t seed,
                        std::size_t max_length) {
  corpus_verifications.add();
  const std::vector<Graph> corpus = standard_corpus(n);
  std::size_t length = std::max<std::size_t>(8, 2 * n);
  while (length <= max_length) {
    Uxs candidate = Uxs::pseudo_random(length, seed);
    bool covers = true;
    for (const Graph& g : corpus) {
      if (!is_uxs_for(g, candidate)) {
        covers = false;
        break;
      }
    }
    if (covers) {
      return Uxs(std::vector<std::uint64_t>(candidate.terms().begin(),
                                            candidate.terms().end()),
                 "corpus-verified(n=" + std::to_string(n) +
                     ",seed=" + std::to_string(seed) +
                     ",len=" + std::to_string(length) + ")");
    }
    length *= 2;
  }
  throw std::runtime_error("corpus_verified_uxs: no covering length up to cap");
}

Uxs covering_uxs(const graph::Graph& g, std::uint64_t seed,
                 std::size_t max_length) {
  std::size_t length = std::max<std::size_t>(8, 2 * g.size());
  while (length <= max_length) {
    Uxs candidate = Uxs::pseudo_random(length, seed);
    if (is_uxs_for(g, candidate)) {
      return Uxs(std::vector<std::uint64_t>(candidate.terms().begin(),
                                            candidate.terms().end()),
                 "graph-verified(" + g.name() +
                     ",seed=" + std::to_string(seed) +
                     ",len=" + std::to_string(length) + ")");
    }
    length *= 2;
  }
  throw std::runtime_error("covering_uxs: no covering length up to cap");
}

}  // namespace rdv::uxs
