// kronlab/grb/csr.hpp
//
// Compressed sparse row matrix — the computational format of the
// mini-GraphBLAS layer.
//
// Invariants (checked by check_invariants(), established by from_coo):
//  * row_ptr has nrows()+1 entries, is non-decreasing, spans [0, nnz];
//  * within each row, column indices are strictly increasing (no duplicate
//    entries) and in [0, ncols).
//
// Stored values may be zero only if explicitly inserted; from_coo drops
// combined entries that sum to exactly T{0} so adjacency matrices stay
// structurally minimal.

#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "kronlab/common/error.hpp"
#include "kronlab/common/types.hpp"
#include "kronlab/grb/coo.hpp"
#include "kronlab/grb/vector.hpp"

namespace kronlab::grb {

template <typename T>
class Csr {
public:
  Csr() : row_ptr_(1, 0) {}

  /// Adopt raw CSR arrays.  Validates the invariants above.
  Csr(index_t nrows, index_t ncols, std::vector<offset_t> row_ptr,
      std::vector<index_t> col_idx, std::vector<T> vals)
      : nrows_(nrows),
        ncols_(ncols),
        row_ptr_(std::move(row_ptr)),
        col_idx_(std::move(col_idx)),
        vals_(std::move(vals)) {
    check_invariants();
  }

  /// Build from COO: sorts triplets, sums duplicates, drops exact zeros.
  static Csr from_coo(const Coo<T>& coo) {
    auto triplets = coo.entries(); // copy; sorted below
    std::sort(triplets.begin(), triplets.end(),
              [](const auto& a, const auto& b) {
                return a.row != b.row ? a.row < b.row : a.col < b.col;
              });
    Csr out;
    out.nrows_ = coo.nrows();
    out.ncols_ = coo.ncols();
    out.row_ptr_.assign(static_cast<std::size_t>(coo.nrows()) + 1, 0);
    out.col_idx_.reserve(triplets.size());
    out.vals_.reserve(triplets.size());
    std::size_t idx = 0;
    while (idx < triplets.size()) {
      const index_t r = triplets[idx].row;
      const index_t c = triplets[idx].col;
      T acc{};
      while (idx < triplets.size() && triplets[idx].row == r &&
             triplets[idx].col == c) {
        acc += triplets[idx].val;
        ++idx;
      }
      if (acc != T{}) {
        out.col_idx_.push_back(c);
        out.vals_.push_back(acc);
        ++out.row_ptr_[static_cast<std::size_t>(r) + 1];
      }
    }
    for (std::size_t r = 0; r < static_cast<std::size_t>(out.nrows_); ++r) {
      out.row_ptr_[r + 1] += out.row_ptr_[r];
    }
    return out;
  }

  /// n×n identity matrix.
  static Csr identity(index_t n) {
    KRONLAB_REQUIRE(n >= 0, "identity size must be non-negative");
    Csr out;
    out.nrows_ = out.ncols_ = n;
    out.row_ptr_.resize(static_cast<std::size_t>(n) + 1);
    out.col_idx_.resize(static_cast<std::size_t>(n));
    out.vals_.assign(static_cast<std::size_t>(n), T{1});
    for (index_t i = 0; i <= n; ++i)
      out.row_ptr_[static_cast<std::size_t>(i)] = i;
    for (index_t i = 0; i < n; ++i)
      out.col_idx_[static_cast<std::size_t>(i)] = i;
    return out;
  }

  /// Build from a dense row-major array (tests and tiny examples only).
  static Csr from_dense(index_t nrows, index_t ncols,
                        const std::vector<T>& dense) {
    KRONLAB_REQUIRE(static_cast<index_t>(dense.size()) == nrows * ncols,
                    "dense size mismatch");
    Coo<T> coo(nrows, ncols);
    for (index_t i = 0; i < nrows; ++i) {
      for (index_t j = 0; j < ncols; ++j) {
        const T v = dense[static_cast<std::size_t>(i * ncols + j)];
        if (v != T{}) coo.push(i, j, v);
      }
    }
    return from_coo(coo);
  }

  [[nodiscard]] index_t nrows() const { return nrows_; }
  [[nodiscard]] index_t ncols() const { return ncols_; }
  [[nodiscard]] offset_t nnz() const {
    return static_cast<offset_t>(col_idx_.size());
  }
  [[nodiscard]] bool empty() const { return nnz() == 0; }

  [[nodiscard]] std::span<const index_t> row_cols(index_t i) const {
    KRONLAB_DBG_ASSERT(i >= 0 && i < nrows_, "row index out of range");
    const auto b = static_cast<std::size_t>(row_ptr_[i]);
    const auto e = static_cast<std::size_t>(row_ptr_[i + 1]);
    return {col_idx_.data() + b, e - b};
  }
  [[nodiscard]] std::span<const T> row_vals(index_t i) const {
    KRONLAB_DBG_ASSERT(i >= 0 && i < nrows_, "row index out of range");
    const auto b = static_cast<std::size_t>(row_ptr_[i]);
    const auto e = static_cast<std::size_t>(row_ptr_[i + 1]);
    return {vals_.data() + b, e - b};
  }
  [[nodiscard]] offset_t row_degree(index_t i) const {
    return row_ptr_[static_cast<std::size_t>(i) + 1] -
           row_ptr_[static_cast<std::size_t>(i)];
  }

  /// Value at (i,j), or T{0} if the entry is not stored.  Binary search.
  [[nodiscard]] T at(index_t i, index_t j) const {
    const auto cols = row_cols(i);
    const auto it = std::lower_bound(cols.begin(), cols.end(), j);
    if (it == cols.end() || *it != j) return T{};
    return row_vals(i)[static_cast<std::size_t>(it - cols.begin())];
  }

  [[nodiscard]] bool has(index_t i, index_t j) const {
    const auto cols = row_cols(i);
    return std::binary_search(cols.begin(), cols.end(), j);
  }

  [[nodiscard]] const std::vector<offset_t>& row_ptr() const {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<index_t>& col_idx() const {
    return col_idx_;
  }
  [[nodiscard]] const std::vector<T>& vals() const { return vals_; }
  [[nodiscard]] std::vector<T>& vals() { return vals_; }

  /// Dense row-major copy (tests and tiny examples only).
  [[nodiscard]] std::vector<T> to_dense() const {
    std::vector<T> d(static_cast<std::size_t>(nrows_ * ncols_), T{});
    for (index_t i = 0; i < nrows_; ++i) {
      const auto cols = row_cols(i);
      const auto vals = row_vals(i);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        d[static_cast<std::size_t>(i * ncols_ + cols[k])] = vals[k];
      }
    }
    return d;
  }

  bool operator==(const Csr&) const = default;

  /// Validate the structural invariants; throws invalid_argument on
  /// violation.
  void check_invariants() const {
    KRONLAB_REQUIRE(nrows_ >= 0 && ncols_ >= 0, "negative dimensions");
    KRONLAB_REQUIRE(
        row_ptr_.size() == static_cast<std::size_t>(nrows_) + 1,
        "row_ptr must have nrows+1 entries");
    KRONLAB_REQUIRE(row_ptr_.front() == 0, "row_ptr must start at 0");
    KRONLAB_REQUIRE(
        row_ptr_.back() == static_cast<offset_t>(col_idx_.size()),
        "row_ptr must end at nnz");
    KRONLAB_REQUIRE(col_idx_.size() == vals_.size(),
                    "col_idx/vals length mismatch");
    // All of row_ptr first: monotone from 0 to nnz, so every row's span
    // lies inside col_idx and the row pass below reads nothing past it.
    for (index_t i = 0; i < nrows_; ++i) {
      KRONLAB_REQUIRE(row_ptr_[i] <= row_ptr_[i + 1],
                      "row_ptr must be non-decreasing");
    }
    for (index_t i = 0; i < nrows_; ++i) {
      const auto cols = row_cols(i);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        KRONLAB_REQUIRE(cols[k] >= 0 && cols[k] < ncols_,
                        "column index out of range");
        KRONLAB_REQUIRE(k == 0 || cols[k - 1] < cols[k],
                        "columns must be strictly increasing within a row");
      }
    }
  }

private:
  index_t nrows_ = 0;
  index_t ncols_ = 0;
  std::vector<offset_t> row_ptr_;
  std::vector<index_t> col_idx_;
  std::vector<T> vals_;
};

} // namespace kronlab::grb
