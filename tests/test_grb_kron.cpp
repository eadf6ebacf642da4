// Tests for the sparse Kronecker product kernel and its algebraic
// properties (Prop. 1 of the paper's appendix).

#include <gtest/gtest.h>

#include "kronlab/common/random.hpp"
#include "kronlab/grb/coo.hpp"
#include "kronlab/grb/kron.hpp"
#include "kronlab/grb/ops.hpp"
#include "kronlab/kron/index_map.hpp"
#include "kronlab/parallel/thread_pool.hpp"
#include "support/kron_reference.hpp"

namespace kronlab::grb {
namespace {

Csr<count_t> dense2(const std::vector<count_t>& v) {
  return Csr<count_t>::from_dense(2, 2, v);
}

using test_support::kron_reference;

/// An nrows × ncols matrix with nonzero values, about half of whose rows
/// (the first and last among them) are empty.
Csr<count_t> sparse_with_empty_rows(index_t nrows, index_t ncols,
                                    std::uint64_t seed) {
  Rng rng(seed);
  Coo<count_t> coo(nrows, ncols);
  for (index_t i = 1; i + 1 < nrows; ++i) {
    if (rng.next_below(2) == 0) continue;
    for (int e = 0; e < 4; ++e) {
      coo.push(i, rng.uniform(0, ncols - 1), rng.uniform(1, 9));
    }
  }
  return Csr<count_t>::from_coo(coo);
}

TEST(Kron, MatchesDefinitionEntrywise) {
  const auto a = Csr<count_t>::from_dense(2, 3, {1, 2, 0, 0, 3, 4});
  const auto b = Csr<count_t>::from_dense(3, 2, {5, 0, 6, 7, 0, 8});
  const auto c = kron(a, b);
  ASSERT_EQ(c.nrows(), 6);
  ASSERT_EQ(c.ncols(), 6);
  for (index_t i = 0; i < a.nrows(); ++i) {
    for (index_t j = 0; j < a.ncols(); ++j) {
      for (index_t k = 0; k < b.nrows(); ++k) {
        for (index_t l = 0; l < b.ncols(); ++l) {
          EXPECT_EQ(c.at(kron::gamma(i, k, b.nrows()),
                         kron::gamma(j, l, b.ncols())),
                    a.at(i, j) * b.at(k, l));
        }
      }
    }
  }
  c.check_invariants();
}

TEST(Kron, NnzIsProductOfNnz) {
  const auto a = dense2({1, 1, 0, 1});
  const auto b = dense2({0, 2, 2, 0});
  EXPECT_EQ(kron(a, b).nnz(), a.nnz() * b.nnz());
}

TEST(Kron, IdentityIsNeutralUpToShape) {
  const auto a = dense2({1, 2, 3, 4});
  const auto i1 = Csr<count_t>::identity(1);
  EXPECT_EQ(kron(i1, a), a);
  EXPECT_EQ(kron(a, i1), a);
}

TEST(Kron, MixedProductProperty) {
  // (A1 ⊗ A2)(A3 ⊗ A4) = (A1·A3) ⊗ (A2·A4)  — Prop. 1(d).
  const auto a1 = dense2({1, 2, 0, 1});
  const auto a2 = dense2({0, 1, 1, 1});
  const auto a3 = dense2({2, 0, 1, 1});
  const auto a4 = dense2({1, 1, 0, 2});
  EXPECT_EQ(mxm(kron(a1, a2), kron(a3, a4)),
            kron(mxm(a1, a3), mxm(a2, a4)));
}

TEST(Kron, TranspositionProperty) {
  // (A ⊗ B)ᵗ = Aᵗ ⊗ Bᵗ — Prop. 1(c).
  const auto a = Csr<count_t>::from_dense(2, 3, {1, 0, 2, 3, 0, 0});
  const auto b = dense2({0, 5, 6, 0});
  EXPECT_EQ(transpose(kron(a, b)), kron(transpose(a), transpose(b)));
}

TEST(Kron, DistributivityOverAddition) {
  // (A1 + A2) ⊗ A3 = A1⊗A3 + A2⊗A3 — Prop. 1(b).
  const auto a1 = dense2({1, 0, 0, 2});
  const auto a2 = dense2({0, 3, 4, 0});
  const auto a3 = dense2({1, 1, 1, 0});
  EXPECT_EQ(kron(ewise_add(a1, a2), a3),
            ewise_add(kron(a1, a3), kron(a2, a3)));
}

TEST(Kron, HadamardKroneckerDistributivity) {
  // (A1⊗A2) ∘ (A3⊗A4) = (A1∘A3) ⊗ (A2∘A4) — Prop. 2(e).
  const auto a1 = dense2({1, 2, 3, 0});
  const auto a2 = dense2({0, 1, 1, 1});
  const auto a3 = dense2({1, 0, 3, 4});
  const auto a4 = dense2({2, 1, 0, 1});
  EXPECT_EQ(ewise_mult(kron(a1, a2), kron(a3, a4)),
            kron(ewise_mult(a1, a3), ewise_mult(a2, a4)));
}

TEST(Kron, DiagonalKroneckerDistributivity) {
  // diag(A1 ⊗ A2) = diag(A1) ⊗ diag(A2) — Prop. 2(f).
  const auto a1 = dense2({3, 1, 0, 5});
  const auto a2 = dense2({2, 0, 1, 7});
  EXPECT_EQ(diag_vector(kron(a1, a2)).data(),
            kron(diag_vector(a1), diag_vector(a2)).data());
}

TEST(Kron, EmptyRowsMatchCooReference) {
  // Empty rows first, inside and last in both factors: the size pass and
  // the fill pass write every slot of the product's arrays, which start
  // untouched (poisoned when asserts are on), at every pool width.
  const auto a = Csr<count_t>::from_dense(4, 3, {0, 0, 0,  //
                                                 1, 2, 0,  //
                                                 0, 0, 0,  //
                                                 3, 0, 4});
  const auto b = Csr<count_t>::from_dense(3, 4, {0, 5, 0, 6,  //
                                                 0, 0, 0, 0,  //
                                                 7, 0, 0, 8});
  const auto big_a = sparse_with_empty_rows(60, 40, 31);
  const auto big_b = sparse_with_empty_rows(50, 70, 32);
  for (const std::size_t width : {1, 4}) {
    ThreadPool pool(width);
    ScopedPoolOverride guard(pool);
    EXPECT_EQ(kron(a, b), kron_reference(a, b)) << "width " << width;
    EXPECT_EQ(kron(b, a), kron_reference(b, a)) << "width " << width;
    EXPECT_EQ(kron(big_a, big_b), kron_reference(big_a, big_b))
        << "width " << width;
  }
}

TEST(Kron, EmptyFactorGivesEmptyProduct) {
  const Csr<count_t> empty(2, 2, {0, 0, 0}, {}, {});
  const auto a = dense2({1, 1, 1, 1});
  EXPECT_EQ(kron(empty, a).nnz(), 0);
  EXPECT_EQ(kron(a, empty).nnz(), 0);
}

} // namespace
} // namespace kronlab::grb
