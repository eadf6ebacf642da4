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
//
// The structure (row_ptr and col_idx) is one immutable Pattern block that
// copies share; only the values are per-matrix.  A result that carries
// values on an input's structure — per-edge counts, scalings, a masked
// product — is built with Csr(structure, vals) on the input's pattern, so
// a product-sized pattern exists once however many value arrays ride on
// it.  Every array is a grb::Array, allocated without being touched.

#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "kronlab/common/error.hpp"
#include "kronlab/common/types.hpp"
#include "kronlab/grb/array.hpp"
#include "kronlab/grb/coo.hpp"
#include "kronlab/grb/vector.hpp"

namespace kronlab::grb {

/// The structure of a Csr: immutable once built, shared by every matrix
/// whose values ride on it.
struct Pattern {
  Array<offset_t> row_ptr;
  Array<index_t> col_idx;
};

template <typename T>
class Csr {
public:
  /// 0×0, on one pattern shared by every empty matrix.
  Csr() noexcept : Csr(empty_pattern(), 0, 0, {}) {}

  /// Adopt raw CSR arrays as a new pattern.  Validates the invariants
  /// above.
  Csr(index_t nrows, index_t ncols, Array<offset_t> row_ptr,
      Array<index_t> col_idx, Array<T> vals)
      : Csr(std::make_shared<const Pattern>(
                Pattern{std::move(row_ptr), std::move(col_idx)}),
            nrows, ncols, std::move(vals)) {
    check_invariants();
  }

  /// `vals` on `structure`'s pattern, shared rather than copied.  The
  /// pattern was validated when it was built, so only the length of
  /// `vals` is checked: no row pass.
  template <typename U>
  Csr(const Csr<U>& structure, Array<T> vals)
      : Csr(structure.pattern_, structure.nrows_, structure.ncols_,
            std::move(vals)) {
    KRONLAB_REQUIRE(vals_.size() == pattern_->col_idx.size(),
                    "vals must hold one value per stored entry");
  }

  Csr(const Csr&) = default;
  Csr& operator=(const Csr&) = default;
  /// A moved-from matrix is the empty one, so its row pointers never
  /// outlive the pattern they point into.
  Csr(Csr&& o) noexcept : Csr() { swap(o); }
  Csr& operator=(Csr&& o) noexcept {
    Csr(std::move(o)).swap(*this);
    return *this;
  }

  void swap(Csr& o) noexcept {
    std::swap(nrows_, o.nrows_);
    std::swap(ncols_, o.ncols_);
    std::swap(rp_, o.rp_);
    std::swap(ci_, o.ci_);
    pattern_.swap(o.pattern_);
    vals_.swap(o.vals_);
  }

  /// Build from COO: sorts triplets, sums duplicates, drops exact zeros.
  static Csr from_coo(const Coo<T>& coo) {
    auto triplets = coo.entries(); // copy; sorted below
    std::sort(triplets.begin(), triplets.end(),
              [](const auto& a, const auto& b) {
                return a.row != b.row ? a.row < b.row : a.col < b.col;
              });
    Pattern pat;
    Array<T> vals;
    pat.row_ptr.assign(static_cast<std::size_t>(coo.nrows()) + 1, 0);
    pat.col_idx.reserve(triplets.size());
    vals.reserve(triplets.size());
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
        pat.col_idx.push_back(c);
        vals.push_back(acc);
        ++pat.row_ptr[static_cast<std::size_t>(r) + 1];
      }
    }
    for (std::size_t r = 0; r < static_cast<std::size_t>(coo.nrows()); ++r) {
      pat.row_ptr[r + 1] += pat.row_ptr[r];
    }
    return {std::make_shared<const Pattern>(std::move(pat)), coo.nrows(),
            coo.ncols(), std::move(vals)};
  }

  /// n×n identity matrix.
  static Csr identity(index_t n) {
    KRONLAB_REQUIRE(n >= 0, "identity size must be non-negative");
    Pattern pat;
    pat.row_ptr.resize(static_cast<std::size_t>(n) + 1);
    pat.col_idx.resize(static_cast<std::size_t>(n));
    for (index_t i = 0; i <= n; ++i)
      pat.row_ptr[static_cast<std::size_t>(i)] = i;
    for (index_t i = 0; i < n; ++i)
      pat.col_idx[static_cast<std::size_t>(i)] = i;
    return {std::make_shared<const Pattern>(std::move(pat)), n, n,
            Array<T>(static_cast<std::size_t>(n), T{1})};
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
  [[nodiscard]] offset_t nnz() const { return rp_[nrows_]; }
  [[nodiscard]] bool empty() const { return nnz() == 0; }

  [[nodiscard]] std::span<const index_t> row_cols(index_t i) const {
    KRONLAB_DBG_ASSERT(i >= 0 && i < nrows_, "row index out of range");
    const auto b = static_cast<std::size_t>(rp_[i]);
    const auto e = static_cast<std::size_t>(rp_[i + 1]);
    return {ci_ + b, e - b};
  }
  [[nodiscard]] std::span<const T> row_vals(index_t i) const {
    KRONLAB_DBG_ASSERT(i >= 0 && i < nrows_, "row index out of range");
    const auto b = static_cast<std::size_t>(rp_[i]);
    const auto e = static_cast<std::size_t>(rp_[i + 1]);
    return {vals_.data() + b, e - b};
  }
  [[nodiscard]] offset_t row_degree(index_t i) const {
    return rp_[i + 1] - rp_[i];
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

  [[nodiscard]] const Array<offset_t>& row_ptr() const {
    return pattern_->row_ptr;
  }
  [[nodiscard]] const Array<index_t>& col_idx() const {
    return pattern_->col_idx;
  }
  [[nodiscard]] const Array<T>& vals() const { return vals_; }
  [[nodiscard]] Array<T>& vals() { return vals_; }

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

  /// Same shape, structure and values; two matrices on one pattern skip
  /// the structure comparison.
  bool operator==(const Csr& o) const {
    return nrows_ == o.nrows_ && ncols_ == o.ncols_ &&
           (pattern_ == o.pattern_ || (row_ptr() == o.row_ptr() &&
                                       col_idx() == o.col_idx())) &&
           vals_ == o.vals_;
  }

  /// Validate the structural invariants; throws invalid_argument on
  /// violation.
  void check_invariants() const {
    const auto& row_ptr = pattern_->row_ptr;
    const auto& col_idx = pattern_->col_idx;
    KRONLAB_REQUIRE(nrows_ >= 0 && ncols_ >= 0, "negative dimensions");
    KRONLAB_REQUIRE(
        row_ptr.size() == static_cast<std::size_t>(nrows_) + 1,
        "row_ptr must have nrows+1 entries");
    KRONLAB_REQUIRE(row_ptr.front() == 0, "row_ptr must start at 0");
    KRONLAB_REQUIRE(
        row_ptr.back() == static_cast<offset_t>(col_idx.size()),
        "row_ptr must end at nnz");
    KRONLAB_REQUIRE(col_idx.size() == vals_.size(),
                    "col_idx/vals length mismatch");
    // All of row_ptr first: monotone from 0 to nnz, so every row's span
    // lies inside col_idx and the row pass below reads nothing past it.
    for (index_t i = 0; i < nrows_; ++i) {
      KRONLAB_REQUIRE(rp_[i] <= rp_[i + 1], "row_ptr must be non-decreasing");
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
  template <typename U>
  friend class Csr;

  Csr(std::shared_ptr<const Pattern> pattern, index_t nrows, index_t ncols,
      Array<T> vals) noexcept
      : nrows_(nrows),
        ncols_(ncols),
        rp_(pattern->row_ptr.data()),
        ci_(pattern->col_idx.data()),
        pattern_(std::move(pattern)),
        vals_(std::move(vals)) {}

  static const std::shared_ptr<const Pattern>& empty_pattern() noexcept {
    static const auto empty =
        std::make_shared<const Pattern>(Pattern{{0}, {}});
    return empty;
  }

  index_t nrows_;
  index_t ncols_;
  // The pattern's arrays, cached so row_cols and row_vals stay one load
  // deep in the kernels' hot loops.
  const offset_t* rp_;
  const index_t* ci_;
  std::shared_ptr<const Pattern> pattern_;
  Array<T> vals_;
};

} // namespace kronlab::grb
