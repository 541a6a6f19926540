#include <gtest/gtest.h>

#include "cache/artifact_cache.hpp"
#include "graph/families/families.hpp"
#include "graph/families/qhat.hpp"
#include "uxs/corpus.hpp"
#include "uxs/uxs.hpp"
#include "uxs/verifier.hpp"

namespace rdv::uxs {
namespace {

using graph::Graph;
using graph::Node;
namespace families = rdv::graph::families;

TEST(Uxs, PseudoRandomDeterministic) {
  const Uxs a = Uxs::pseudo_random(64, 9);
  const Uxs b = Uxs::pseudo_random(64, 9);
  ASSERT_EQ(a.length(), b.length());
  for (std::size_t i = 0; i < a.length(); ++i) {
    EXPECT_EQ(a.terms()[i], b.terms()[i]);
  }
  const Uxs c = Uxs::pseudo_random(64, 10);
  EXPECT_NE(a.terms()[0], c.terms()[0]);
}

TEST(Uxs, DefaultLengthGrowsPolynomially) {
  EXPECT_GE(Uxs::default_length(2), 8u);
  EXPECT_LT(Uxs::default_length(8), Uxs::default_length(16));
  EXPECT_EQ(Uxs::default_length(4), 4u * 16 * 3);
}

TEST(Apply, PathLengthIsMPlusTwoNodes) {
  const Graph g = families::oriented_ring(5);
  const Uxs y = Uxs::pseudo_random(10, 1);
  const auto walk = apply_uxs(g, 0, y);
  EXPECT_EQ(walk.size(), y.length() + 2);
  EXPECT_EQ(walk[0], 0u);
  EXPECT_EQ(walk[1], 1u);  // first step is port 0 = clockwise
}

TEST(Apply, StaysInGraph) {
  const Graph g = families::random_connected(9, 5, 2);
  const Uxs y = Uxs::pseudo_random(200, 3);
  for (Node u = 0; u < g.size(); ++u) {
    for (const Node v : apply_uxs(g, u, y)) {
      EXPECT_LT(v, g.size());
    }
  }
}

TEST(Verifier, DetectsNonCoverage) {
  // A sequence of all zeros in an oriented ring with entry ports: step
  // port 0, then (entry + 0) mod 2: entering clockwise means entry port
  // 1, so (1+0)%2 = 1 = go back: it oscillates and cannot cover a long
  // ring.
  const Graph g = families::oriented_ring(8);
  const Uxs zeros(std::vector<std::uint64_t>(16, 0), "zeros");
  const CoverageReport report = check_coverage(g, zeros);
  EXPECT_FALSE(report.universal);
  EXPECT_FALSE(report.failing_starts.empty());
}

TEST(Verifier, AcceptsCoveringSequence) {
  // All-ones in the oriented ring: (entry 1 + 1) mod 2 = 0 = keep going
  // clockwise; covers after n-1 terms.
  const Graph g = families::oriented_ring(8);
  const Uxs ones(std::vector<std::uint64_t>(8, 1), "ones");
  const CoverageReport report = check_coverage(g, ones);
  EXPECT_TRUE(report.universal);
  EXPECT_GE(report.sufficient_prefix, 6u);
}

TEST(Corpus, ContainsExpectedFamilies) {
  const auto corpus = standard_corpus(8);
  // path, complete, rings, hypercube(3), random instances at least.
  EXPECT_GE(corpus.size(), 8u);
  for (const Graph& g : corpus) {
    EXPECT_EQ(g.size(), 8u) << g.name();
    EXPECT_TRUE(g.validate().empty()) << g.name();
  }
}

class CorpusUxsTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CorpusUxsTest, CoversItsCorpus) {
  const std::uint32_t n = GetParam();
  const Uxs y = corpus_verified_uxs(n);
  for (const Graph& g : standard_corpus(n)) {
    EXPECT_TRUE(is_uxs_for(g, y)) << g.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CorpusUxsTest,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 8u, 12u, 17u));

TEST(CorpusUxs, CachedIsStable) {
  // The global artifact cache is the one process-wide UXS memoizer:
  // repeated requests share one artifact.
  const auto a = cache::cached_uxs(6);
  const auto b = cache::cached_uxs(6);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->provenance(), corpus_verified_uxs(6).provenance());
}

TEST(CoveringUxs, CoversArbitraryGraph) {
  const Graph g = families::random_connected(11, 7, 77);
  const Uxs y = covering_uxs(g);
  EXPECT_TRUE(is_uxs_for(g, y));
  EXPECT_NE(y.provenance().find("graph-verified"), std::string::npos);
  // Deterministic: same call, same sequence.
  const Uxs y2 = covering_uxs(g);
  EXPECT_EQ(y.provenance(), y2.provenance());
  EXPECT_EQ(y.length(), y2.length());
}

TEST(CorpusUxs, CoversQhat2) {
  // qhat_size(2) = 17, so the size-17 corpus includes Q-hat-2; the
  // cached UXS must cover it (needed by UniversalRV runs on Q-hat).
  const auto q = rdv::graph::families::qhat_explicit(2);
  EXPECT_TRUE(is_uxs_for(q.graph, *cache::cached_uxs(17)));
}

}  // namespace
}  // namespace rdv::uxs
