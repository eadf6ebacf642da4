// Tests for bipartite edge clustering coefficients (Def. 10) and the Thm 6
// scaling law.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "kronlab/gen/canonical.hpp"
#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/graph/butterflies.hpp"
#include "kronlab/graph/graph.hpp"
#include "kronlab/kron/clustering.hpp"
#include "kronlab/kron/index_map.hpp"
#include "support/kron_reference.hpp"

namespace kronlab::kron {
namespace {

TEST(EdgeClustering, DefinitionCases) {
  EXPECT_DOUBLE_EQ(edge_clustering(6, 3, 4).value(), 1.0);
  EXPECT_DOUBLE_EQ(edge_clustering(3, 3, 4).value(), 0.5);
  EXPECT_DOUBLE_EQ(edge_clustering(0, 5, 5).value(), 0.0);
  EXPECT_FALSE(edge_clustering(0, 1, 7).has_value());
  EXPECT_FALSE(edge_clustering(0, 7, 1).has_value());
}

TEST(EdgeClustering, CompleteBipartiteIsFullyClustered) {
  // In K_{m,n} every edge attains the maximum (d_i−1)(d_j−1) squares.
  const auto a = gen::complete_bipartite(3, 4);
  const auto g = edge_clustering_matrix(a);
  for (const double v : g.vals()) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(EdgeClustering, TreeEdgesAreZero) {
  const auto a = gen::double_star(3, 3);
  const auto g = edge_clustering_matrix(a);
  for (const double v : g.vals()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Psi, RangeMatchesThm6Note) {
  // ψ ∈ [1/9, 1): minimum at all degrees = 2.
  EXPECT_DOUBLE_EQ(psi(2, 2, 2, 2), 1.0 / 9.0);
  EXPECT_LT(psi(10, 10, 10, 10), 1.0);
  EXPECT_GT(psi(50, 50, 50, 50), 0.9);
  EXPECT_THROW(psi(1, 2, 2, 2), invalid_argument);
}

class Thm6Test : public ::testing::TestWithParam<int> {
protected:
  BipartiteKronecker make_product() const {
    switch (GetParam()) {
      case 0:
        return BipartiteKronecker::assumption_i(
            gen::complete_graph(4), gen::complete_bipartite(3, 3));
      case 1:
        return BipartiteKronecker::assumption_i(gen::complete_graph(3),
                                                gen::crown_graph(4));
      default: {
        Rng rng(800 + GetParam());
        return BipartiteKronecker::assumption_i(
            gen::random_nonbipartite_connected(7, 16, rng),
            gen::connected_random_bipartite(5, 5, 16, rng));
      }
    }
  }
};

TEST_P(Thm6Test, LowerBoundHoldsOnEveryQualifyingEdge) {
  const auto kp = make_product();
  const auto samples = clustering_samples(kp);
  ASSERT_FALSE(samples.empty());
  for (const auto& s : samples) {
    EXPECT_GE(s.gamma_c, s.bound - 1e-12)
        << "edge (" << s.p << "," << s.q << ")";
    EXPECT_GE(s.psi, 1.0 / 9.0 - 1e-12);
    EXPECT_LT(s.psi, 1.0);
  }
}

TEST_P(Thm6Test, GammaCMatchesDirectComputation) {
  const auto kp = make_product();
  const auto c = test_support::kron_reference(kp.left(), kp.right());
  const auto sq = graph::edge_butterflies(c);
  const auto d = graph::degrees(c);
  // The sampled edges, read off the reference: each edge once (p < q),
  // in row-major order, where all four factor degrees are ≥ 2.
  const auto d_m = graph::degrees(kp.left());
  const auto d_b = graph::degrees(kp.right());
  const index_t nb = kp.right().nrows();
  std::vector<std::pair<index_t, index_t>> expect;
  for (const auto& [p, q] : test_support::entries_of_rows(c, 0, c.nrows())) {
    if (p < q && d_m[alpha(p, nb)] >= 2 && d_m[alpha(q, nb)] >= 2 &&
        d_b[beta(p, nb)] >= 2 && d_b[beta(q, nb)] >= 2) {
      expect.emplace_back(p, q);
    }
  }
  std::vector<std::pair<index_t, index_t>> sampled;
  for (const auto& s : clustering_samples(kp)) {
    sampled.emplace_back(s.p, s.q);
    const auto want = edge_clustering(sq.at(s.p, s.q), d[s.p], d[s.q]);
    ASSERT_TRUE(want.has_value());
    EXPECT_DOUBLE_EQ(s.gamma_c, *want);
  }
  EXPECT_EQ(sampled, expect);
}

INSTANTIATE_TEST_SUITE_P(Products, Thm6Test, ::testing::Range(0, 5));

TEST(Thm6, SampleTruncationIsHonored) {
  const auto kp = BipartiteKronecker::assumption_i(
      gen::complete_graph(4), gen::complete_bipartite(3, 3));
  EXPECT_EQ(static_cast<index_t>(clustering_samples(kp, 10).size()), 10);
}

TEST(Thm6, RejectsSelfLoopLeftFactor) {
  const auto kp = BipartiteKronecker::assumption_ii(gen::path_graph(3),
                                                    gen::path_graph(4));
  EXPECT_THROW(clustering_samples(kp), domain_error);
}

} // namespace
} // namespace kronlab::kron
