// The central cross-validation suite: factored ground-truth statistics of
// Kronecker products must agree exactly with direct combinatorial counting
// on the materialized product, across factor families and both Assumption
// 1(i) and 1(ii) constructions.

#include <gtest/gtest.h>

#include "kronlab/gen/canonical.hpp"
#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/graph/butterflies.hpp"
#include "kronlab/graph/graph.hpp"
#include "kronlab/grb/kron.hpp"
#include "kronlab/grb/ops.hpp"
#include "kronlab/graph/triangles.hpp"
#include "kronlab/kron/ground_truth.hpp"
#include "kronlab/kron/product.hpp"
#include "kronlab/kron/triangles.hpp"
#include "kronlab/parallel/thread_pool.hpp"

namespace kronlab {
namespace {

using gen::Adjacency;
using kron::BipartiteKronecker;
using kron::FactoredMatrix;

/// The term-by-term composition FactoredMatrix::materialize must reproduce
/// entry for entry: each term as a scaled product-sized kron, folded with
/// ewise_add, then divided.
grb::Csr<count_t> composed_materialize(const FactoredMatrix& f) {
  const auto& terms = f.terms();
  auto acc = grb::scale(grb::kron(terms[0].g, terms[0].h), terms[0].coeff);
  for (std::size_t s = 1; s < terms.size(); ++s) {
    acc = grb::ewise_add(
        acc, grb::scale(grb::kron(terms[s].g, terms[s].h), terms[s].coeff));
  }
  for (auto& v : acc.vals()) v /= f.divisor();
  return acc;
}

/// The nonzero entries of f from point queries, through Coo: shares no
/// code with materialize's count and fill passes.
grb::Csr<count_t> pointwise_reference(const FactoredMatrix& f) {
  grb::Coo<count_t> coo(f.nrows(), f.ncols());
  for (index_t p = 0; p < f.nrows(); ++p) {
    for (index_t q = 0; q < f.ncols(); ++q) {
      if (const count_t v = f.at(p, q); v != 0) coo.push(p, q, v);
    }
  }
  return grb::Csr<count_t>::from_coo(coo);
}

/// An n × n factor with values in [1, 3], about half of whose rows (the
/// first and last among them) are empty.
grb::Csr<count_t> factor_with_empty_rows(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  grb::Coo<count_t> coo(n, n);
  for (index_t i = 1; i + 1 < n; ++i) {
    if (rng.next_below(2) == 0) continue;
    for (int e = 0; e < 3; ++e) {
      coo.push(i, rng.uniform(0, n - 1), rng.uniform(1, 3));
    }
  }
  return grb::Csr<count_t>::from_coo(coo);
}

// -------------------------------------------------------------------------
// Def. 8 / Def. 9 linear-algebra formulas vs direct counting on one graph.

class FactorFormulaTest : public ::testing::TestWithParam<int> {
protected:
  Adjacency make_graph() const {
    switch (GetParam()) {
      case 0: return gen::cycle_graph(8);
      case 1: return gen::complete_bipartite(3, 4);
      case 2: return gen::crown_graph(4);
      case 3: return gen::hypercube(3);
      case 4: return gen::complete_graph(5);
      case 5: return gen::triangle_with_tail(3);
      case 6: {
        Rng rng(100 + GetParam());
        return gen::connected_random_bipartite(6, 9, 20, rng);
      }
      case 7: {
        Rng rng(200);
        return gen::random_nonbipartite_connected(10, 22, rng);
      }
      case 8: return gen::grid_graph(3, 4);
      default: {
        Rng rng(300);
        return gen::random_bipartite(8, 8, 24, rng);
      }
    }
  }
};

TEST_P(FactorFormulaTest, Def8MatchesWedgeCounting) {
  const auto a = make_graph();
  EXPECT_EQ(kron::vertex_squares_formula(a), graph::vertex_butterflies(a));
}

TEST_P(FactorFormulaTest, Def9MatchesWedgeCounting) {
  const auto a = make_graph();
  const auto formula = kron::edge_squares_formula(a);
  EXPECT_EQ(formula, graph::edge_butterflies(a));
  EXPECT_EQ(formula.col_idx().data(), a.col_idx().data());
  EXPECT_EQ(graph::edge_triangles(a).col_idx().data(), a.col_idx().data());
}

TEST_P(FactorFormulaTest, NaiveOracleAgrees) {
  const auto a = make_graph();
  EXPECT_EQ(graph::vertex_butterflies(a),
            graph::vertex_butterflies_naive(a));
  EXPECT_EQ(graph::edge_butterflies(a), graph::edge_butterflies_naive(a));
  EXPECT_EQ(graph::global_butterflies(a),
            graph::global_butterflies_naive(a));
}

TEST_P(FactorFormulaTest, VertexEdgeRelationHolds) {
  // s = ½ ◇ 1 (each square at a vertex uses two incident edges).
  const auto a = make_graph();
  const auto sq_edges = kron::edge_squares_formula(a);
  const auto s = kron::vertex_squares_formula(a);
  const auto row_sums = grb::reduce_rows(sq_edges);
  for (index_t i = 0; i < a.nrows(); ++i) {
    EXPECT_EQ(s[i], row_sums[i] / 2) << "vertex " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(FactorFamilies, FactorFormulaTest,
                         ::testing::Range(0, 10));

// -------------------------------------------------------------------------
// Product-level factored ground truth vs direct counting on materialize().

struct ProductCase {
  const char* name;
  int id;
};

class ProductGroundTruthTest : public ::testing::TestWithParam<int> {
protected:
  BipartiteKronecker make_product() const {
    switch (GetParam()) {
      case 0: // Fig. 1 lower-left style: triangle ⊗ path
        return BipartiteKronecker::assumption_i(gen::triangle_with_tail(0),
                                                gen::path_graph(4));
      case 1:
        return BipartiteKronecker::assumption_i(gen::complete_graph(4),
                                                gen::star_graph(3));
      case 2:
        return BipartiteKronecker::assumption_i(
            gen::triangle_with_tail(2), gen::complete_bipartite(2, 3));
      case 3: // Fig. 1 lower-right style: (P3 + I) ⊗ P4
        return BipartiteKronecker::assumption_ii(gen::path_graph(3),
                                                 gen::path_graph(4));
      case 4:
        return BipartiteKronecker::assumption_ii(gen::star_graph(3),
                                                 gen::crown_graph(3));
      case 5:
        return BipartiteKronecker::assumption_ii(
            gen::complete_bipartite(2, 3), gen::hypercube(3));
      case 6: {
        Rng rng(42);
        return BipartiteKronecker::assumption_i(
            gen::random_nonbipartite_connected(7, 13, rng),
            gen::connected_random_bipartite(4, 5, 12, rng));
      }
      case 7: {
        Rng rng(43);
        return BipartiteKronecker::assumption_ii(
            gen::connected_random_bipartite(4, 4, 10, rng),
            gen::connected_random_bipartite(5, 4, 13, rng));
      }
      case 8: // raw: disconnected bipartite ⊗ bipartite (Fig. 1 top)
        return BipartiteKronecker::raw(gen::path_graph(3),
                                       gen::cycle_graph(4));
      default: { // raw with a disconnected factor (unicode is disconnected)
        Rng rng(44);
        return BipartiteKronecker::raw(
            grb::add_identity(gen::random_bipartite(5, 6, 10, rng)),
            gen::random_bipartite(4, 5, 8, rng));
      }
    }
  }
};

TEST_P(ProductGroundTruthTest, ProductIsLoopFree) {
  const auto kp = make_product();
  EXPECT_TRUE(grb::has_no_self_loops(kp.materialize()));
}

TEST_P(ProductGroundTruthTest, EdgeAndVertexCountsMatch) {
  const auto kp = make_product();
  const auto c = kp.materialize();
  EXPECT_EQ(kp.num_vertices(), graph::num_vertices(c));
  EXPECT_EQ(kp.num_edges(), graph::num_edges(c));
}

TEST_P(ProductGroundTruthTest, DegreesMatch) {
  const auto kp = make_product();
  const auto c = kp.materialize();
  EXPECT_EQ(kron::degrees(kp).materialize(), graph::degrees(c));
}

TEST_P(ProductGroundTruthTest, TwoHopWalksMatch) {
  const auto kp = make_product();
  const auto c = kp.materialize();
  EXPECT_EQ(kron::two_hop_walks(kp).materialize(),
            graph::two_hop_walks(c));
}

TEST_P(ProductGroundTruthTest, VertexSquaresMatchDirectCounting) {
  const auto kp = make_product();
  const auto c = kp.materialize();
  EXPECT_EQ(kron::vertex_squares(kp).materialize(),
            graph::vertex_butterflies(c));
}

TEST_P(ProductGroundTruthTest, EdgeSquaresMatchDirectCounting) {
  const auto kp = make_product();
  const auto c = kp.materialize();
  const auto direct = graph::edge_butterflies(c);
  const auto factored = kron::edge_squares(kp);
  // Compare entry-wise on C's structure (the factored materialization drops
  // structural zeros, so query instead).
  for (index_t p = 0; p < c.nrows(); ++p) {
    const auto cols = direct.row_cols(p);
    const auto vals = direct.row_vals(p);
    for (std::size_t e = 0; e < cols.size(); ++e) {
      EXPECT_EQ(factored.at(p, cols[e]), vals[e])
          << "edge (" << p << "," << cols[e] << ")";
    }
  }
}

TEST_P(ProductGroundTruthTest, TriangleGroundTruthMatchesDirect) {
  // The prior-work formulas ([3],[12]) this paper extends: exact triangle
  // counts — identically zero whenever a factor is bipartite (§III).
  const auto kp = make_product();
  const auto c = kp.materialize();
  EXPECT_EQ(kron::vertex_triangles(kp).materialize(),
            graph::vertex_triangles(c));
  EXPECT_EQ(kron::global_triangles(kp), graph::global_triangles(c));
  const auto et_direct = graph::edge_triangles(c);
  const auto et_truth = kron::edge_triangles(kp);
  for (index_t p = 0; p < c.nrows(); ++p) {
    const auto cols = et_direct.row_cols(p);
    const auto vals = et_direct.row_vals(p);
    for (std::size_t e = 0; e < cols.size(); ++e) {
      ASSERT_EQ(et_truth.at(p, cols[e]), vals[e])
          << "edge (" << p << "," << cols[e] << ")";
    }
  }
}

TEST_P(ProductGroundTruthTest, GlobalSquaresMatchDirectCounting) {
  const auto kp = make_product();
  const auto c = kp.materialize();
  EXPECT_EQ(kron::global_squares(kp), graph::global_butterflies(c));
}

TEST_P(ProductGroundTruthTest, EdgeSquaresRowReduceGivesVertexSquares) {
  // s_C = ½ ◇_C 1 evaluated wholly in factor space.
  const auto kp = make_product();
  const auto s_from_edges = kron::edge_squares(kp).row_reduce(2);
  const auto s_direct = kron::vertex_squares(kp);
  EXPECT_EQ(s_from_edges.materialize(), s_direct.materialize());
}

TEST_P(ProductGroundTruthTest, FusedMaterializeMatchesTermComposition) {
  // Values and stored structure, on every construction (cases 6, 7 and 9
  // are seeded random factor pairs): the 4-term ◇_C drops entries that
  // cancel, the 1-term edge-triangle matrix keeps its kron structure.
  const auto kp = make_product();
  const auto squares = kron::edge_squares(kp);
  EXPECT_EQ(squares.materialize(), composed_materialize(squares));
  const auto triangles = kron::edge_triangles(kp);
  ASSERT_EQ(triangles.num_terms(), 1);
  EXPECT_EQ(triangles.materialize(), composed_materialize(triangles));
}

INSTANTIATE_TEST_SUITE_P(ProductFamilies, ProductGroundTruthTest,
                         ::testing::Range(0, 10));

// -------------------------------------------------------------------------
// Sublinearity sanity: factored objects expose size-independent queries.

TEST(FactoredGroundTruth, PointQueryMatchesMaterialization) {
  const auto kp = BipartiteKronecker::assumption_ii(
      gen::complete_bipartite(2, 3), gen::crown_graph(3));
  const auto sv = kron::vertex_squares(kp);
  const auto dense = sv.materialize();
  for (index_t p = 0; p < sv.size(); ++p) EXPECT_EQ(sv.at(p), dense[p]);
}

TEST(FactoredGroundTruth, ReduceMatchesMaterializedSum) {
  const auto kp = BipartiteKronecker::assumption_i(gen::complete_graph(4),
                                                   gen::hypercube(3));
  const auto sv = kron::vertex_squares(kp);
  EXPECT_EQ(sv.reduce(), grb::reduce(sv.materialize()));
  const auto em = kron::edge_squares(kp);
  count_t total = 0;
  const auto c = kp.materialize();
  for (index_t p = 0; p < c.nrows(); ++p) {
    for (const index_t q : c.row_cols(p)) total += em.at(p, q);
  }
  EXPECT_EQ(em.reduce(), total);
}

// -------------------------------------------------------------------------
// Fused FactoredMatrix::materialize vs the term-by-term composition.

TEST(FusedMaterialize, DivisorAndMixedSparsity) {
  // Three terms whose factors have different structures (dense rows,
  // diagonal, anti-diagonal, an empty row), even coefficients, divisor 2.
  FactoredMatrix f(3, 2, /*divisor=*/2);
  f.add_term(+2, grb::Csr<count_t>::from_dense(3, 3, {1, 2, 0,  //
                                                      0, 0, 0,  //
                                                      3, 1, 4}),
             grb::Csr<count_t>::from_dense(2, 2, {1, 1, 0, 5}));
  f.add_term(-4, grb::Csr<count_t>::identity(3),
             grb::Csr<count_t>::from_dense(2, 2, {0, 3, 2, 0}));
  f.add_term(+6, grb::Csr<count_t>::from_dense(3, 3, {0, 0, 7,  //
                                                      0, 1, 0,  //
                                                      2, 0, 0}),
             grb::Csr<count_t>::from_dense(2, 2, {2, 0, 0, 1}));
  const auto fused = f.materialize();
  EXPECT_EQ(fused, composed_materialize(f));
  for (index_t p = 0; p < f.nrows(); ++p) {
    for (index_t q = 0; q < f.ncols(); ++q) {
      EXPECT_EQ(fused.at(p, q), f.at(p, q)) << "(" << p << "," << q << ")";
    }
  }
}

TEST(FusedMaterialize, CancellingTermsAreDropped) {
  // B − B' cancels exactly where B' repeats B's value; a third term only
  // partly overlaps the survivors.
  const auto a = grb::Csr<count_t>::from_dense(2, 2, {1, 2, 3, 0});
  const auto b = grb::Csr<count_t>::from_dense(3, 3, {1, 1, 0,  //
                                                      0, 2, 1,  //
                                                      4, 0, 1});
  const auto b_part = grb::Csr<count_t>::from_dense(3, 3, {1, 0, 0,  //
                                                           0, 2, 0,  //
                                                           4, 0, 5});
  FactoredMatrix f(2, 3);
  f.add_term(+1, a, b);
  f.add_term(-1, a, b_part);
  f.add_term(+1, grb::Csr<count_t>::identity(2), b_part);
  EXPECT_EQ(f.materialize(), composed_materialize(f));

  FactoredMatrix all_cancel(2, 3);
  all_cancel.add_term(+3, a, b);
  all_cancel.add_term(-3, a, b);
  const auto zero = all_cancel.materialize();
  EXPECT_EQ(zero, composed_materialize(all_cancel));
  EXPECT_EQ(zero.nnz(), 0);
}

TEST(FusedMaterialize, EmptyRowsAndCancellationMatchCooReference) {
  // Factors with empty rows and terms that cancel on part of their union:
  // the count pass and the fill pass (keep_zeros off) must agree on every
  // slot of the untouched — poisoned when asserts are on — output arrays,
  // at every pool width.
  const auto g = factor_with_empty_rows(30, 41);
  const auto g2 = factor_with_empty_rows(30, 42);
  const auto h = factor_with_empty_rows(25, 43);
  const auto h_part = grb::apply(h, [](count_t v) { return v == 2 ? v : 1; });
  FactoredMatrix f(30, 25);
  f.add_term(+1, g, h);
  f.add_term(-1, g, h_part); // cancels wherever h holds 1 or 2
  f.add_term(+2, g2, h_part);
  FactoredMatrix all_cancel(30, 25);
  all_cancel.add_term(+3, g, h);
  all_cancel.add_term(-3, g, h);
  const auto want = pointwise_reference(f);
  for (const std::size_t width : {1, 4}) {
    ThreadPool pool(width);
    ScopedPoolOverride guard(pool);
    EXPECT_EQ(f.materialize(), want) << "width " << width;
    EXPECT_EQ(all_cancel.materialize(), pointwise_reference(all_cancel))
        << "width " << width;
  }
}

TEST(FusedMaterialize, SingleTermKeepsKronStructure) {
  // One term is stored as its kron structure, zero values included.
  const grb::Csr<count_t> g(2, 2, {0, 2, 3}, {0, 1, 1}, {1, 0, 2});
  FactoredMatrix f(2, 2);
  f.add_term(+1, g, grb::Csr<count_t>::identity(2));
  const auto fused = f.materialize();
  EXPECT_EQ(fused, composed_materialize(f));
  EXPECT_EQ(fused.nnz(), 6);

  FactoredMatrix zero_coeff(2, 2);
  zero_coeff.add_term(0, g, grb::Csr<count_t>::identity(2));
  EXPECT_EQ(zero_coeff.materialize(), composed_materialize(zero_coeff));
  EXPECT_EQ(zero_coeff.materialize().nnz(), 6);
}

TEST(FusedMaterialize, EmptySumIsRejected) {
  EXPECT_THROW((void)FactoredMatrix(2, 3).materialize(), invalid_argument);
}

// -------------------------------------------------------------------------
// Remark 1: nontrivial products always contain squares.

TEST(Remark1, SquareFreeFactorsWithDegreeTwoYieldSquares) {
  // Double stars are square-free; their product must contain 4-cycles
  // because both factors have a vertex of degree ≥ 2.
  const auto a = gen::double_star(2, 2);
  const auto b = gen::double_star(1, 2);
  ASSERT_EQ(graph::global_butterflies(a), 0);
  ASSERT_EQ(graph::global_butterflies(b), 0);
  const auto kp = BipartiteKronecker::raw(a, b);
  EXPECT_GT(kron::global_squares(kp), 0);
}

TEST(Remark1, DisjointEdgesFactorGivesNoSquares) {
  // The only degree-1 graphs are disjoint edge unions; their products are
  // square-free — the limiting case the remark names.
  const auto edge = gen::path_graph(2);
  const auto a = gen::disjoint_union(edge, edge);
  const auto kp = BipartiteKronecker::raw(a, a);
  EXPECT_EQ(kron::global_squares(kp), 0);
}

} // namespace
} // namespace kronlab
