// Tests for grb::Coo / grb::Csr construction, invariants, and accessors.

#include <gtest/gtest.h>

#include "kronlab/grb/coo.hpp"
#include "kronlab/grb/csr.hpp"

namespace kronlab::grb {
namespace {

TEST(Coo, PushValidatesRange) {
  Coo<count_t> coo(2, 3);
  EXPECT_NO_THROW(coo.push(1, 2, 5));
  EXPECT_THROW(coo.push(2, 0, 1), invalid_argument);
  EXPECT_THROW(coo.push(0, 3, 1), invalid_argument);
  EXPECT_THROW(coo.push(-1, 0, 1), invalid_argument);
}

TEST(Coo, PushSymmetricAddsBothDirections) {
  Coo<count_t> coo(3, 3);
  coo.push_symmetric(0, 1, 1);
  coo.push_symmetric(2, 2, 1); // loop added once
  EXPECT_EQ(coo.nnz(), 3);
}

TEST(Csr, FromCooSortsAndCombines) {
  Coo<count_t> coo(3, 3);
  coo.push(1, 2, 5);
  coo.push(0, 1, 1);
  coo.push(1, 2, 7); // duplicate → summed
  coo.push(1, 0, 2);
  const auto a = Csr<count_t>::from_coo(coo);
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_EQ(a.at(1, 2), 12);
  EXPECT_EQ(a.at(0, 1), 1);
  EXPECT_EQ(a.at(1, 0), 2);
  EXPECT_EQ(a.at(2, 2), 0);
  a.check_invariants();
}

TEST(Csr, FromCooDropsExactZeroSums) {
  Coo<count_t> coo(2, 2);
  coo.push(0, 0, 3);
  coo.push(0, 0, -3);
  coo.push(1, 1, 1);
  const auto a = Csr<count_t>::from_coo(coo);
  EXPECT_EQ(a.nnz(), 1);
  EXPECT_FALSE(a.has(0, 0));
  EXPECT_TRUE(a.has(1, 1));
}

TEST(Csr, IdentityHasUnitDiagonal) {
  const auto i3 = Csr<count_t>::identity(3);
  EXPECT_EQ(i3.nnz(), 3);
  for (index_t i = 0; i < 3; ++i) {
    EXPECT_EQ(i3.at(i, i), 1);
    EXPECT_EQ(i3.row_degree(i), 1);
  }
  EXPECT_EQ(i3.at(0, 1), 0);
}

TEST(Csr, FromDenseRoundTrip) {
  const std::vector<count_t> dense{0, 1, 2, 0, 0, 3};
  const auto a = Csr<count_t>::from_dense(2, 3, dense);
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_EQ(a.to_dense(), dense);
}

TEST(Csr, FromDenseRejectsBadSize) {
  EXPECT_THROW(Csr<count_t>::from_dense(2, 2, {1, 2, 3}),
               invalid_argument);
}

TEST(Csr, RowSpansMatchStructure) {
  Coo<count_t> coo(3, 4);
  coo.push(1, 3, 9);
  coo.push(1, 0, 8);
  const auto a = Csr<count_t>::from_coo(coo);
  EXPECT_EQ(a.row_degree(0), 0);
  EXPECT_EQ(a.row_degree(1), 2);
  const auto cols = a.row_cols(1);
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0], 0);
  EXPECT_EQ(cols[1], 3);
  const auto vals = a.row_vals(1);
  EXPECT_EQ(vals[0], 8);
  EXPECT_EQ(vals[1], 9);
}

TEST(Csr, AdoptingRawArraysValidates) {
  // Unsorted columns within a row must be rejected.
  EXPECT_THROW(Csr<count_t>(1, 3, {0, 2}, {2, 1}, {1, 1}),
               invalid_argument);
  // row_ptr not ending at nnz.
  EXPECT_THROW(Csr<count_t>(1, 3, {0, 1}, {0, 1}, {1, 1}),
               invalid_argument);
  // Column out of range.
  EXPECT_THROW(Csr<count_t>(1, 2, {0, 1}, {5}, {1}), invalid_argument);
  // Duplicate column in a row.
  EXPECT_THROW(Csr<count_t>(1, 3, {0, 2}, {1, 1}, {1, 1}),
               invalid_argument);
  // An interior row_ptr entry past nnz: rejected before any row span is
  // read out of col_idx.
  EXPECT_THROW(Csr<count_t>(2, 2, {0, 100, 2}, {0, 1}, {1, 1}),
               invalid_argument);
  // A valid adoption passes.
  EXPECT_NO_THROW(Csr<count_t>(2, 2, {0, 1, 2}, {1, 0}, {1, 1}));
}

TEST(Csr, EmptyMatrixBehaves) {
  const Csr<count_t> a;
  EXPECT_EQ(a.nrows(), 0);
  EXPECT_EQ(a.ncols(), 0);
  EXPECT_EQ(a.nnz(), 0);
  EXPECT_TRUE(a.empty());
}

TEST(Csr, EqualityIsStructuralAndValued) {
  Coo<count_t> coo(2, 2);
  coo.push(0, 1, 1);
  const auto a = Csr<count_t>::from_coo(coo);
  // A copy shares a's pattern and carries values of its own.
  auto b = a;
  EXPECT_EQ(b.row_ptr().data(), a.row_ptr().data());
  EXPECT_EQ(b.col_idx().data(), a.col_idx().data());
  EXPECT_NE(b.vals().data(), a.vals().data());
  EXPECT_EQ(a, b);
  b.vals()[0] = 2;
  EXPECT_NE(a, b);
  EXPECT_EQ(a.at(0, 1), 1);
  // Two separately built equal matrices: distinct patterns, equal contents.
  const auto c = Csr<count_t>::from_coo(coo);
  EXPECT_NE(c.col_idx().data(), a.col_idx().data());
  EXPECT_EQ(a, c);
  // One shared pattern carrying different values is unequal.
  const Csr<count_t> d(a, Array<count_t>{5});
  EXPECT_EQ(d.col_idx().data(), a.col_idx().data());
  EXPECT_NE(a, d);
  // Equal values on patterns with different structure are unequal.
  Coo<count_t> other(2, 2);
  other.push(1, 0, 1);
  EXPECT_NE(a, Csr<count_t>::from_coo(other));
}

TEST(Csr, SharedPatternChecksOnlyValueLength) {
  const Csr<count_t> a(2, 3, {0, 2, 3}, {0, 2, 1}, {1, 1, 1});
  const Csr<double> halves(a, Array<double>{0.5, 1.5, 2.5});
  EXPECT_EQ(halves.nrows(), 2);
  EXPECT_EQ(halves.ncols(), 3);
  EXPECT_EQ(halves.col_idx().data(), a.col_idx().data());
  EXPECT_DOUBLE_EQ(halves.at(0, 2), 1.5);
  EXPECT_THROW(Csr<count_t>(a, Array<count_t>{1, 2}), invalid_argument);
}

TEST(Csr, MovedFromMatrixIsEmpty) {
  auto a = Csr<count_t>::identity(3);
  const auto* cols = a.col_idx().data();
  const auto b = std::move(a);
  EXPECT_EQ(b.col_idx().data(), cols);
  EXPECT_EQ(b.nnz(), 3);
  EXPECT_EQ(a.nrows(), 0); // NOLINT(bugprone-use-after-move): pinned state
  EXPECT_EQ(a.nnz(), 0);
  EXPECT_EQ(a, Csr<count_t>());
}

} // namespace
} // namespace kronlab::grb
