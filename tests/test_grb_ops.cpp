// Tests for the grb matrix kernels: mxv, mxm (semiring-parameterized),
// element-wise ops, transpose, reductions, diagonal operators, scalings.

#include <gtest/gtest.h>

#include "kronlab/grb/masked.hpp"
#include "kronlab/grb/ops.hpp"
#include "kronlab/grb/semiring.hpp"

namespace kronlab::grb {
namespace {

Csr<count_t> small() {
  // [1 2 0]
  // [0 0 3]
  // [4 0 5]
  return Csr<count_t>::from_dense(3, 3, {1, 2, 0, 0, 0, 3, 4, 0, 5});
}

TEST(Mxv, PlusTimesMatchesDense) {
  const auto a = small();
  const Vector<count_t> x(std::vector<count_t>{1, 10, 100});
  const auto y = mxv(a, x);
  EXPECT_EQ(y.data(), (std::vector<count_t>{21, 300, 504}));
}

TEST(Mxv, ShapeMismatchThrows) {
  EXPECT_THROW(mxv(small(), Vector<count_t>(4)), invalid_argument);
}

TEST(Mxv, OrAndSemiringGivesReachability) {
  const auto a = small();
  const Vector<count_t> x(std::vector<count_t>{0, 0, 7});
  const auto y = mxv<count_t, OrAnd<count_t>>(a, x);
  EXPECT_EQ(y.data(), (std::vector<count_t>{0, 1, 1}));
}

TEST(Mxm, MatchesDenseMultiplication) {
  const auto a = small();
  const auto c = mxm(a, a);
  // Dense square of the matrix above.
  const auto expect = Csr<count_t>::from_dense(
      3, 3, {1, 2, 6, 12, 0, 15, 24, 8, 25});
  EXPECT_EQ(c, expect);
}

TEST(Mxm, RectangularShapes) {
  const auto a = Csr<count_t>::from_dense(2, 3, {1, 0, 2, 0, 3, 0});
  const auto b = Csr<count_t>::from_dense(3, 2, {1, 1, 0, 1, 1, 0});
  const auto c = mxm(a, b);
  EXPECT_EQ(c, Csr<count_t>::from_dense(2, 2, {3, 1, 0, 3}));
  const auto d = mxm(b, a); // 3×2 · 2×3 → 3×3
  EXPECT_EQ(d.nrows(), 3);
  EXPECT_EQ(d.ncols(), 3);
}

TEST(Mxm, ShapeMismatchThrows) {
  const auto a = Csr<count_t>::from_dense(2, 3, {1, 0, 2, 0, 3, 0});
  EXPECT_THROW(mxm(a, a), invalid_argument);
}

TEST(Mxm, MinPlusComputesHopCosts) {
  // Path 0-1-2 with unit weights; A² over min-plus gives 2-hop costs.
  const count_t inf = MinPlus<count_t>::zero();
  Coo<count_t> coo(3, 3);
  coo.push_symmetric(0, 1, 1);
  coo.push_symmetric(1, 2, 1);
  const auto a = Csr<count_t>::from_coo(coo);
  const auto a2 = mxm<count_t, MinPlus<count_t>>(a, a);
  EXPECT_EQ(a2.at(0, 2), 2);
  EXPECT_EQ(a2.at(0, 0), 2); // back and forth
  (void)inf;
}

TEST(MatrixPower, ZeroGivesIdentity) {
  const auto a = small();
  EXPECT_EQ(matrix_power(a, 0), Csr<count_t>::identity(3));
  EXPECT_EQ(matrix_power(a, 1), a);
  EXPECT_EQ(matrix_power(a, 2), mxm(a, a));
  EXPECT_THROW(matrix_power(a, -1), invalid_argument);
}

TEST(Ewise, AddSubMult) {
  const auto a = Csr<count_t>::from_dense(2, 2, {1, 2, 0, 3});
  const auto b = Csr<count_t>::from_dense(2, 2, {5, 0, 7, 3});
  EXPECT_EQ(ewise_add(a, b),
            Csr<count_t>::from_dense(2, 2, {6, 2, 7, 6}));
  EXPECT_EQ(ewise_sub(a, b),
            Csr<count_t>::from_dense(2, 2, {-4, 2, -7, 0}));
  EXPECT_EQ(ewise_mult(a, b), Csr<count_t>::from_dense(2, 2, {5, 0, 0, 9}));
}

TEST(Ewise, HadamardIntersectsStructure) {
  const auto a = Csr<count_t>::from_dense(2, 2, {1, 2, 0, 0});
  const auto b = Csr<count_t>::from_dense(2, 2, {0, 3, 4, 0});
  const auto h = ewise_mult(a, b);
  EXPECT_EQ(h.nnz(), 1);
  EXPECT_EQ(h.at(0, 1), 6);
}

TEST(Ewise, ShapeMismatchThrows) {
  const auto a = Csr<count_t>::from_dense(2, 2, {1, 0, 0, 1});
  const auto b = Csr<count_t>::from_dense(2, 3, {1, 0, 0, 0, 1, 0});
  EXPECT_THROW(ewise_add(a, b), invalid_argument);
}

TEST(Transpose, RoundTripsAndMoves) {
  const auto a = Csr<count_t>::from_dense(2, 3, {1, 0, 2, 0, 3, 0});
  const auto at = transpose(a);
  EXPECT_EQ(at.nrows(), 3);
  EXPECT_EQ(at.ncols(), 2);
  EXPECT_EQ(at.at(2, 0), 2);
  EXPECT_EQ(at.at(1, 1), 3);
  EXPECT_EQ(transpose(at), a);
}

TEST(Reduce, RowsAndScalar) {
  const auto a = small();
  EXPECT_EQ(reduce_rows(a).data(), (std::vector<count_t>{3, 3, 9}));
  EXPECT_EQ(reduce(a), 15);
}

TEST(Vxm, MatchesTransposedMxv) {
  const auto a = Csr<count_t>::from_dense(2, 3, {1, 0, 2, 0, 3, 0});
  const Vector<count_t> x(std::vector<count_t>{5, 7});
  const auto y = vxm(x, a);
  EXPECT_EQ(y.data(), mxv(transpose(a), x).data());
  EXPECT_EQ(y.data(), (std::vector<count_t>{5, 21, 10}));
  EXPECT_THROW(vxm(Vector<count_t>(3), a), invalid_argument);
}

TEST(Vxm, QuadraticFormMatchesDot) {
  // dᵗ A d = dot(d, mxv(A, d)) = dot(vxm(d, A), d) — the #P3 kernel.
  const auto a = small();
  const Vector<count_t> d(std::vector<count_t>{1, 2, 3});
  EXPECT_EQ(dot(vxm(d, a), d), dot(d, mxv(a, d)));
}

TEST(Reduce, ColsMatchTransposedRows) {
  const auto a = small();
  EXPECT_EQ(reduce_cols(a).data(), reduce_rows(transpose(a)).data());
  EXPECT_EQ(reduce_cols(a).data(), (std::vector<count_t>{5, 2, 8}));
}

TEST(Diag, VectorAndMatrixOperators) {
  const auto a = small();
  EXPECT_EQ(diag_vector(a).data(), (std::vector<count_t>{1, 0, 5}));
  const auto d = diag_matrix(a);
  EXPECT_EQ(d.nnz(), 2);
  EXPECT_EQ(d.at(0, 0), 1);
  EXPECT_EQ(d.at(2, 2), 5);
}

TEST(Diag, SelfLoopPredicates) {
  const auto i3 = Csr<count_t>::identity(3);
  EXPECT_TRUE(has_full_self_loops(i3));
  EXPECT_FALSE(has_no_self_loops(i3));
  const auto a = Csr<count_t>::from_dense(2, 2, {0, 1, 1, 0});
  EXPECT_TRUE(has_no_self_loops(a));
  EXPECT_FALSE(has_full_self_loops(a));
  const auto m = add_identity(a);
  EXPECT_TRUE(has_full_self_loops(m));
  EXPECT_EQ(m.nnz(), 4);
}

TEST(Scaling, RowAndColScale) {
  const auto a = small();
  const Vector<count_t> u(std::vector<count_t>{2, 3, 4});
  const auto ra = row_scale(a, u);
  EXPECT_EQ(ra.at(0, 1), 4);  // 2·2
  EXPECT_EQ(ra.at(2, 2), 20); // 4·5
  const auto ca = col_scale(a, u);
  EXPECT_EQ(ca.at(0, 1), 6);  // 2·3
  EXPECT_EQ(ca.at(2, 0), 8);  // 4·2
  EXPECT_THROW(row_scale(a, Vector<count_t>(2)), invalid_argument);
}

TEST(Symmetry, DetectsSymmetricMatrices) {
  const auto sym = Csr<count_t>::from_dense(2, 2, {0, 7, 7, 1});
  EXPECT_TRUE(is_symmetric(sym));
  const auto asym = Csr<count_t>::from_dense(2, 2, {0, 7, 6, 1});
  EXPECT_FALSE(is_symmetric(asym));
  const auto rect = Csr<count_t>::from_dense(1, 2, {1, 1});
  EXPECT_FALSE(is_symmetric(rect));
}

TEST(Apply, TransformsValues) {
  const auto a = small();
  const auto sq = apply(a, [](count_t v) { return v * v; });
  EXPECT_EQ(sq.at(2, 2), 25);
  EXPECT_EQ(sq.at(0, 1), 4);
}

TEST(SharedPattern, ValueOnlyResultsRideOnTheInput) {
  // Results that only recompute values share the input's pattern rather
  // than copying it.
  const auto a = small();
  const Vector<count_t> u(std::vector<count_t>{2, 3, 4});
  for (const auto& r : {row_scale(a, u), col_scale(a, u), scale(a, count_t{3}),
                        apply(a, [](count_t v) { return v + 1; })}) {
    EXPECT_EQ(r.row_ptr().data(), a.row_ptr().data());
    EXPECT_EQ(r.col_idx().data(), a.col_idx().data());
  }
  EXPECT_EQ(scale(a, count_t{3}).vals(), (Array<count_t>{3, 6, 9, 12, 15}));
  const auto masked = mxm_masked(a, a, a);
  EXPECT_EQ(masked.col_idx().data(), a.col_idx().data());
  // (A·A)∘A entry by entry: A² = [1 2 6; 12 0 15; 24 8 25].
  EXPECT_EQ(masked.vals(), (Array<count_t>{1, 2, 15, 24, 25}));
}

TEST(Mxm, CancellationDropsZeroEntries) {
  // [1 1; -1 -1]² has an all-zero product — Gustavson must drop them.
  const auto a = Csr<count_t>::from_dense(2, 2, {1, 1, -1, -1});
  const auto c = mxm(a, a);
  EXPECT_EQ(c.nnz(), 0);
}

} // namespace
} // namespace kronlab::grb
