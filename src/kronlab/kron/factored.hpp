// kronlab/kron/factored.hpp
//
// Factored (sublinear-memory) representations of product-level statistics.
//
// The paper's key computational observation (§I): if a statistic of the
// product C = M ⊗ B has a Kronecker formula f(C) = Σ_s c_s · (g_s ⊗ h_s)
// with a small number of terms, then storing only the factor-sized g_s, h_s
// gives O(1) point queries, O(|f(C)|) materialization, and O(Σ|g_s|+|h_s|)
// global reductions — sublinear in |E_C|.
//
// FactoredVector covers vertex statistics (degrees, s_C of Thms 3–4);
// FactoredMatrix covers edge statistics (◇_C of Thm 5).  Both carry an
// integer `divisor` so formulas like s_C = ½[...] stay in exact integer
// arithmetic: the division is applied after the term sum, where the result
// is provably integral.
//
// FactoredMatrix::materialize builds the product CSR directly, in parallel
// over product rows, with no product-sized intermediate: its memory is the
// output arrays plus per-factor-row unions of the term rows, which are
// factor-sized.  The unions are CSR structures, so the rows are walked by
// grb::for_each_kron_entry (grb/kron.hpp) like every other product walk.
// The output arrays are allocated untouched (grb::Array); the count pass
// writes every row_ptr slot and the fill pass every col_idx and vals
// slot, so the pool workers that fill the pages fault them in.

#pragma once

#include <algorithm>
#include <vector>

#include "kronlab/common/error.hpp"
#include "kronlab/grb/csr.hpp"
#include "kronlab/grb/kron.hpp"
#include "kronlab/grb/ops.hpp"
#include "kronlab/grb/vector.hpp"
#include "kronlab/kron/index_map.hpp"
#include "kronlab/parallel/parallel_for.hpp"

namespace kronlab::kron {

/// Σ_s c_s · (g_s ⊗ h_s) / divisor over dense factor vectors.
class FactoredVector {
public:
  struct Term {
    count_t coeff;
    grb::Vector<count_t> g; ///< left-factor vector (length n_M)
    grb::Vector<count_t> h; ///< right-factor vector (length n_B)
  };

  FactoredVector(index_t n_left, index_t n_right, count_t divisor = 1)
      : n_left_(n_left), n_right_(n_right), divisor_(divisor) {
    KRONLAB_REQUIRE(n_left >= 0 && n_right >= 0, "negative factor size");
    KRONLAB_REQUIRE(divisor >= 1, "divisor must be >= 1");
  }

  void add_term(count_t coeff, grb::Vector<count_t> g,
                grb::Vector<count_t> h) {
    KRONLAB_REQUIRE(g.size() == n_left_ && h.size() == n_right_,
                    "factored term has wrong factor sizes");
    terms_.push_back({coeff, std::move(g), std::move(h)});
  }

  [[nodiscard]] index_t size() const { return n_left_ * n_right_; }
  [[nodiscard]] index_t num_terms() const {
    return static_cast<index_t>(terms_.size());
  }
  [[nodiscard]] count_t divisor() const { return divisor_; }
  [[nodiscard]] const std::vector<Term>& terms() const { return terms_; }

  /// Point query: value at product index p = γ(i, k).  O(#terms).
  [[nodiscard]] count_t at(index_t p) const {
    KRONLAB_DBG_ASSERT(p >= 0 && p < size(), "product index out of range");
    const index_t i = alpha(p, n_right_);
    const index_t k = beta(p, n_right_);
    count_t acc = 0;
    for (const Term& t : terms_) acc += t.coeff * t.g[i] * t.h[k];
    KRONLAB_DBG_ASSERT(acc % divisor_ == 0,
                       "factored value not divisible — formula bug");
    return acc / divisor_;
  }

  /// Σ_p value(p), computed in factor space:
  /// Σ_s c_s·sum(g_s)·sum(h_s) / divisor.  O(Σ |g_s| + |h_s|).
  [[nodiscard]] count_t reduce() const {
    count_t acc = 0;
    for (const Term& t : terms_) {
      acc += t.coeff * grb::reduce(t.g) * grb::reduce(t.h);
    }
    KRONLAB_DBG_ASSERT(acc % divisor_ == 0,
                       "factored reduction not divisible — formula bug");
    return acc / divisor_;
  }

  /// Dense product-length vector (O(|V_C|) memory — validation only).
  [[nodiscard]] grb::Vector<count_t> materialize() const {
    grb::Vector<count_t> out(size(), 0);
    for (const Term& t : terms_) {
      index_t p = 0;
      for (index_t i = 0; i < n_left_; ++i) {
        const count_t gi = t.coeff * t.g[i];
        for (index_t k = 0; k < n_right_; ++k, ++p) out[p] += gi * t.h[k];
      }
    }
    for (index_t p = 0; p < size(); ++p) {
      KRONLAB_DBG_ASSERT(out[p] % divisor_ == 0,
                         "factored value not divisible — formula bug");
      out[p] /= divisor_;
    }
    return out;
  }

private:
  index_t n_left_;
  index_t n_right_;
  count_t divisor_;
  std::vector<Term> terms_;
};

/// Σ_s c_s · (G_s ⊗ H_s) / divisor over factor-sized sparse matrices.
class FactoredMatrix {
public:
  struct Term {
    count_t coeff;
    grb::Csr<count_t> g; ///< left-factor matrix (n_M × n_M)
    grb::Csr<count_t> h; ///< right-factor matrix (n_B × n_B)
  };

  FactoredMatrix(index_t n_left, index_t n_right, count_t divisor = 1)
      : n_left_(n_left), n_right_(n_right), divisor_(divisor) {
    KRONLAB_REQUIRE(n_left >= 0 && n_right >= 0, "negative factor size");
    KRONLAB_REQUIRE(divisor >= 1, "divisor must be >= 1");
  }

  void add_term(count_t coeff, grb::Csr<count_t> g, grb::Csr<count_t> h) {
    KRONLAB_REQUIRE(g.nrows() == n_left_ && g.ncols() == n_left_ &&
                        h.nrows() == n_right_ && h.ncols() == n_right_,
                    "factored term has wrong factor shapes");
    terms_.push_back({coeff, std::move(g), std::move(h)});
  }

  [[nodiscard]] index_t nrows() const { return n_left_ * n_right_; }
  [[nodiscard]] index_t ncols() const { return n_left_ * n_right_; }
  [[nodiscard]] index_t num_terms() const {
    return static_cast<index_t>(terms_.size());
  }
  [[nodiscard]] count_t divisor() const { return divisor_; }
  [[nodiscard]] const std::vector<Term>& terms() const { return terms_; }

  /// Point query at (p, q) via factor-entry lookups.  O(#terms · log deg).
  [[nodiscard]] count_t at(index_t p, index_t q) const {
    const index_t i = alpha(p, n_right_);
    const index_t k = beta(p, n_right_);
    const index_t j = alpha(q, n_right_);
    const index_t l = beta(q, n_right_);
    count_t acc = 0;
    for (const Term& t : terms_) {
      acc += t.coeff * t.g.at(i, j) * t.h.at(k, l);
    }
    KRONLAB_DBG_ASSERT(acc % divisor_ == 0,
                       "factored value not divisible — formula bug");
    return acc / divisor_;
  }

  /// Sum of all entries, in factor space.
  [[nodiscard]] count_t reduce() const {
    count_t acc = 0;
    for (const Term& t : terms_) {
      acc += t.coeff * grb::reduce(t.g) * grb::reduce(t.h);
    }
    KRONLAB_DBG_ASSERT(acc % divisor_ == 0,
                       "factored reduction not divisible — formula bug");
    return acc / divisor_;
  }

  /// Row sums as a FactoredVector: rowsum(G⊗H) = rowsum(G) ⊗ rowsum(H).
  /// This is how s_C = ½ ◇_C 1 is evaluated without leaving factor space.
  [[nodiscard]] FactoredVector row_reduce(count_t extra_divisor = 1) const {
    FactoredVector out(n_left_, n_right_, divisor_ * extra_divisor);
    for (const Term& t : terms_) {
      out.add_term(t.coeff, grb::reduce_rows(t.g), grb::reduce_rows(t.h));
    }
    return out;
  }

  /// Materialize as a product-sized CSR (validation only).  Product row
  /// γ(i,k) ranges over U_G(i) × U_H(k), the unions of the term rows of the
  /// left and right factors, walked by grb::for_each_kron_entry: a count
  /// pass sizes every row, a prefix sum places them, and a fill pass
  /// writes columns j·n_B + l in sorted order.  The stored structure is
  /// that of the term-by-term sum Σ_s c_s·(G_s ⊗ H_s) under ewise_add: a
  /// single term keeps its kron structure, stored zeros included, while
  /// two or more terms store only the entries whose sum is nonzero.
  [[nodiscard]] grb::Csr<count_t> materialize() const {
    KRONLAB_REQUIRE(!terms_.empty(), "cannot materialize empty sum");
    const RowUnions left = row_unions(&Term::g, /*fold_coeff=*/true);
    const RowUnions right = row_unions(&Term::h, /*fold_coeff=*/false);
    const grb::KronFactor lf(left.ptr, left.cols, n_left_);
    const grb::KronFactor rf(right.ptr, right.cols, n_right_);
    const std::size_t nterms = terms_.size();
    const bool keep_zeros = nterms == 1;

    // Calls emit(column, value) for each stored entry of product row p, in
    // column order.
    const auto for_each_entry = [&](index_t p, auto&& emit) {
      grb::for_each_kron_entry(
          lf, rf, p, p + 1, 0, [&](const grb::KronEntry& e) {
            const count_t* gv = &left.vals[e.ea * nterms];
            const count_t* hv = &right.vals[e.eb * nterms];
            count_t v = 0;
            for (std::size_t s = 0; s < nterms; ++s) v += gv[s] * hv[s];
            if (keep_zeros || v != 0) emit(e.q, v);
          });
    };

    const index_t n = nrows();
    grb::Array<offset_t> row_ptr(static_cast<std::size_t>(n) + 1);
    row_ptr[0] = 0;
    parallel_for(0, n, [&](index_t p) {
      offset_t count = 0;
      for_each_entry(p, [&](index_t, count_t) { ++count; });
      row_ptr[static_cast<std::size_t>(p) + 1] = count;
    });
    for (std::size_t r = 1; r < row_ptr.size(); ++r) {
      row_ptr[r] += row_ptr[r - 1];
    }

    const auto total = static_cast<std::size_t>(row_ptr.back());
    grb::Array<index_t> col_idx(total);
    grb::Array<count_t> vals(total);
    parallel_for(0, n, [&](index_t p) {
      auto o = static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(p)]);
      for_each_entry(p, [&](index_t q, count_t v) {
        KRONLAB_DBG_ASSERT(v % divisor_ == 0,
                           "factored value not divisible — formula bug");
        col_idx[o] = q;
        vals[o] = v / divisor_;
        ++o;
      });
    });
    return grb::Csr<count_t>(n, ncols(), std::move(row_ptr),
                             std::move(col_idx), std::move(vals));
  }

private:
  /// Per factor row i, the sorted union of the term rows' columns,
  /// cols[ptr[i], ptr[i+1]).  Union entry a carries every term's value at
  /// vals[a·#terms + s], 0 where term s stores nothing.
  struct RowUnions {
    std::vector<offset_t> ptr;
    std::vector<index_t> cols;
    std::vector<count_t> vals;
  };

  /// Unions of one side's factors (Term::g or Term::h); `fold_coeff`
  /// multiplies each term's values by its coefficient.  Factor-sized.
  [[nodiscard]] RowUnions row_unions(grb::Csr<count_t> Term::*side,
                                     bool fold_coeff) const {
    const std::size_t nterms = terms_.size();
    const index_t n = (terms_.front().*side).nrows();
    RowUnions u;
    u.ptr.assign(static_cast<std::size_t>(n) + 1, 0);
    for (index_t i = 0; i < n; ++i) {
      const std::size_t begin = u.cols.size();
      for (const Term& t : terms_) {
        const auto cols = (t.*side).row_cols(i);
        u.cols.insert(u.cols.end(), cols.begin(), cols.end());
      }
      const auto first = u.cols.begin() + static_cast<std::ptrdiff_t>(begin);
      std::sort(first, u.cols.end());
      u.cols.erase(std::unique(first, u.cols.end()), u.cols.end());
      u.vals.resize(u.cols.size() * nterms, 0);
      for (std::size_t s = 0; s < nterms; ++s) {
        const auto& m = terms_[s].*side;
        const count_t coeff = fold_coeff ? terms_[s].coeff : 1;
        const auto cols = m.row_cols(i);
        const auto vals = m.row_vals(i);
        std::size_t a = begin;
        for (std::size_t e = 0; e < cols.size(); ++e) {
          while (u.cols[a] != cols[e]) ++a;
          u.vals[a * nterms + s] = coeff * vals[e];
        }
      }
      u.ptr[static_cast<std::size_t>(i) + 1] =
          static_cast<offset_t>(u.cols.size());
    }
    return u;
  }

  index_t n_left_;
  index_t n_right_;
  count_t divisor_;
  std::vector<Term> terms_;
};

} // namespace kronlab::kron
