// Tests for GroundTruthOracle: random-access queries, sampling, and the
// degree-histogram ground truth — all validated against the materialized
// product.

#include <gtest/gtest.h>

#include <limits>

#include "kronlab/gen/canonical.hpp"
#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/graph/bipartite_clustering.hpp"
#include "kronlab/graph/butterflies.hpp"
#include "kronlab/graph/stats.hpp"
#include "kronlab/kron/oracle.hpp"

namespace kronlab::kron {
namespace {

class OracleTest : public ::testing::TestWithParam<int> {
protected:
  BipartiteKronecker make() const {
    switch (GetParam() % 3) {
      case 0:
        return BipartiteKronecker::assumption_i(
            gen::triangle_with_tail(GetParam() / 3),
            gen::complete_bipartite(2, 3));
      case 1: {
        Rng rng(7000 + static_cast<std::uint64_t>(GetParam()));
        return BipartiteKronecker::assumption_ii(
            gen::connected_random_bipartite(4, 4, 10, rng),
            gen::connected_random_bipartite(4, 5, 12, rng));
      }
      default: {
        Rng rng(8000 + static_cast<std::uint64_t>(GetParam()));
        return BipartiteKronecker::raw(
            grb::add_identity(gen::random_bipartite(4, 4, 8, rng)),
            gen::random_bipartite(5, 4, 10, rng));
      }
    }
  }
};

TEST_P(OracleTest, VertexRecordsMatchDirect) {
  const auto kp = make();
  const GroundTruthOracle oracle(kp);
  const auto c = kp.materialize();
  const auto d = graph::degrees(c);
  const auto w2 = graph::two_hop_walks(c);
  const auto s = graph::vertex_butterflies(c);
  const auto closure = graph::local_closure(c);
  for (index_t p = 0; p < c.nrows(); ++p) {
    const auto r = oracle.vertex(p);
    EXPECT_EQ(r.degree, d[p]);
    EXPECT_EQ(r.two_hop, w2[p]);
    EXPECT_EQ(r.squares, s[p]);
    EXPECT_DOUBLE_EQ(r.closure, closure[p]);
  }
}

TEST_P(OracleTest, EdgeRecordsMatchDirect) {
  const auto kp = make();
  const GroundTruthOracle oracle(kp);
  const auto c = kp.materialize();
  const auto sq = graph::edge_butterflies(c);
  const auto d = graph::degrees(c);
  for (index_t p = 0; p < c.nrows(); ++p) {
    const auto cols = sq.row_cols(p);
    const auto vals = sq.row_vals(p);
    for (std::size_t e = 0; e < cols.size(); ++e) {
      const auto r = oracle.edge(p, cols[e]);
      EXPECT_EQ(r.squares, vals[e]);
      EXPECT_EQ(r.degree_p, d[p]);
      EXPECT_EQ(r.degree_q, d[cols[e]]);
    }
  }
}

TEST_P(OracleTest, DegreeHistogramMatchesDirect) {
  const auto kp = make();
  const GroundTruthOracle oracle(kp);
  EXPECT_EQ(oracle.degree_histogram(),
            graph::degree_histogram(kp.materialize()));
}

INSTANTIATE_TEST_SUITE_P(Products, OracleTest, ::testing::Range(0, 9));

TEST(Oracle, EdgeQueryRejectsNonEdges) {
  const auto kp = BipartiteKronecker::assumption_ii(gen::path_graph(2),
                                                    gen::path_graph(2));
  const GroundTruthOracle oracle(kp);
  // C = C4 on {0,1,2,3}: (0,2) is a diagonal, not an edge.
  EXPECT_THROW((void)oracle.edge(0, 2), invalid_argument);
}

TEST_P(OracleTest, TryEdgeAgreesWithEdgeEverywhere) {
  // try_edge is the probe form: over the full p×q grid it must return a
  // record exactly where the materialized product has an edge, nullopt
  // everywhere else, and the record must equal what edge() returns.
  const auto kp = make();
  const GroundTruthOracle oracle(kp);
  const auto c = kp.materialize();
  for (index_t p = 0; p < c.nrows(); ++p) {
    for (index_t q = 0; q < c.ncols(); ++q) {
      const auto r = oracle.try_edge(p, q);
      ASSERT_EQ(r.has_value(), c.has(p, q)) << p << "," << q;
      if (r) {
        const auto direct = oracle.edge(p, q);
        EXPECT_EQ(r->p, direct.p);
        EXPECT_EQ(r->q, direct.q);
        EXPECT_EQ(r->degree_p, direct.degree_p);
        EXPECT_EQ(r->degree_q, direct.degree_q);
        EXPECT_EQ(r->squares, direct.squares);
        EXPECT_DOUBLE_EQ(r->gamma, direct.gamma);
      }
    }
  }
}

TEST_P(OracleTest, HasEdgeIsTryEdgeMembership) {
  // has_edge is the membership half of try_edge: equal over the full p×q
  // grid, and over a border of negative and out-of-range ids.
  const auto kp = make();
  const GroundTruthOracle oracle(kp);
  const index_t n = kp.num_vertices();
  for (index_t p = -2; p < n + 2; ++p) {
    for (index_t q = -2; q < n + 2; ++q) {
      ASSERT_EQ(oracle.has_edge(p, q), oracle.try_edge(p, q).has_value())
          << p << "," << q;
    }
  }
  EXPECT_FALSE(oracle.has_edge(std::numeric_limits<index_t>::min(), 0));
  EXPECT_FALSE(oracle.has_edge(0, std::numeric_limits<index_t>::max()));
}

TEST(Oracle, TryEdgeIsNulloptOutOfRangeNotAnError) {
  const auto kp = BipartiteKronecker::assumption_ii(gen::path_graph(2),
                                                    gen::path_graph(2));
  const GroundTruthOracle oracle(kp);
  const auto n = kp.num_vertices();
  // A query server forwards raw client input: out-of-range indices are an
  // answer (nullopt), never an exception or an out-of-bounds read.
  EXPECT_FALSE(oracle.try_edge(-1, 0).has_value());
  EXPECT_FALSE(oracle.try_edge(0, -1).has_value());
  EXPECT_FALSE(oracle.try_edge(n, 0).has_value());
  EXPECT_FALSE(oracle.try_edge(0, n).has_value());
  EXPECT_FALSE(oracle.try_edge(n, n).has_value());
  // The throwing form keeps its contract for in-range non-edges and
  // out-of-range indices alike.
  EXPECT_THROW((void)oracle.edge(n, 0), invalid_argument);
  EXPECT_THROW((void)oracle.edge(-1, -1), invalid_argument);
}

TEST(Oracle, SampledVerticesAreValidAndCover) {
  const auto kp = BipartiteKronecker::assumption_i(
      gen::triangle_with_tail(0), gen::path_graph(3));
  const GroundTruthOracle oracle(kp);
  Rng rng(9);
  std::vector<int> seen(static_cast<std::size_t>(kp.num_vertices()), 0);
  for (int t = 0; t < 500; ++t) {
    const auto r = oracle.sample_vertex(rng);
    ASSERT_GE(r.p, 0);
    ASSERT_LT(r.p, kp.num_vertices());
    seen[static_cast<std::size_t>(r.p)] = 1;
  }
  // 9 vertices, 500 draws: all must appear.
  for (const int s : seen) EXPECT_EQ(s, 1);
}

TEST(Oracle, SampledEdgesAreRealAndRoughlyUniform) {
  const auto kp = BipartiteKronecker::assumption_ii(gen::path_graph(2),
                                                    gen::path_graph(3));
  const GroundTruthOracle oracle(kp);
  const auto c = kp.materialize();
  Rng rng(10);
  std::map<std::pair<index_t, index_t>, int> freq;
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    const auto r = oracle.sample_edge(rng);
    ASSERT_TRUE(c.has(r.p, r.q)) << r.p << "," << r.q;
    auto key = std::minmax(r.p, r.q);
    ++freq[{key.first, key.second}];
  }
  // Every undirected edge should be drawn, each within a loose tolerance
  // of the uniform expectation.
  const auto edges = graph::num_edges(c);
  EXPECT_EQ(static_cast<count_t>(freq.size()), edges);
  const double expect = static_cast<double>(trials) /
                        static_cast<double>(edges);
  for (const auto& [e, n] : freq) {
    EXPECT_GT(n, expect * 0.5);
    EXPECT_LT(n, expect * 1.7);
  }
}

TEST(Oracle, LocalClosureVectorMatchesDirect) {
  Rng rng(11);
  const auto kp = BipartiteKronecker::assumption_ii(
      gen::connected_random_bipartite(3, 4, 9, rng),
      gen::connected_random_bipartite(4, 4, 11, rng));
  const GroundTruthOracle oracle(kp);
  const auto truth = oracle.local_closure();
  const auto direct = graph::local_closure(kp.materialize());
  ASSERT_EQ(truth.size(), direct.size());
  for (index_t p = 0; p < truth.size(); ++p) {
    EXPECT_DOUBLE_EQ(truth[p], direct[p]) << "vertex " << p;
  }
}

} // namespace
} // namespace kronlab::kron
