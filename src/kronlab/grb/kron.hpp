// kronlab/grb/kron.hpp
//
// Kronecker product of sparse matrices (Def. 4) — the GrB_kronecker
// counterpart.  The product of CSR factors is built directly in CSR form:
// product row p = γ(i,k) is the outer merge of factor rows i (of A) and k
// (of B); since A's columns and B's columns are each sorted, the product's
// columns j·n_B + l come out sorted with no extra sorting pass.
//
// Materialization is O(nnz(A)·nnz(B)) work and memory, parallelized over
// product rows.  The product-sized arrays are allocated untouched
// (grb::Array): the row-size pass writes every row_ptr slot and the fill
// pass every col_idx and vals slot, so each page is first touched by the
// pool worker that fills it, and nothing is zeroed first.  For products
// too large to materialize, use kron::EdgeStream
// (kronlab/kron/stream.hpp) instead.

#pragma once

#include "kronlab/grb/csr.hpp"
#include "kronlab/parallel/parallel_for.hpp"

namespace kronlab::grb {

template <typename T>
Csr<T> kron(const Csr<T>& a, const Csr<T>& b) {
  const index_t m = a.nrows() * b.nrows();
  const index_t n = a.ncols() * b.ncols();

  Array<offset_t> row_ptr(static_cast<std::size_t>(m) + 1);
  row_ptr[0] = 0;
  parallel_for(
      0, a.nrows(),
      [&](index_t i) {
        const offset_t da = a.row_degree(i);
        for (index_t k = 0; k < b.nrows(); ++k) {
          const index_t p = i * b.nrows() + k;
          row_ptr[static_cast<std::size_t>(p) + 1] = da * b.row_degree(k);
        }
      },
      global_pool(), parallel_grain);
  for (std::size_t r = 1; r < row_ptr.size(); ++r) row_ptr[r] += row_ptr[r - 1];

  const auto total = static_cast<std::size_t>(row_ptr.back());
  Array<index_t> col_idx(total);
  Array<T> vals(total);

  parallel_for(
      0, m,
      [&](index_t p) {
        const index_t i = p / b.nrows();
        const index_t k = p % b.nrows();
        const auto acols = a.row_cols(i);
        const auto avals = a.row_vals(i);
        const auto bcols = b.row_cols(k);
        const auto bvals = b.row_vals(k);
        auto o =
            static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(p)]);
        for (std::size_t ka = 0; ka < acols.size(); ++ka) {
          const index_t base = acols[ka] * b.ncols();
          const T va = avals[ka];
          for (std::size_t kb = 0; kb < bcols.size(); ++kb, ++o) {
            col_idx[o] = base + bcols[kb];
            vals[o] = va * bvals[kb];
          }
        }
      },
      global_pool(), parallel_grain);
  return Csr<T>(m, n, std::move(row_ptr), std::move(col_idx),
                std::move(vals));
}

} // namespace kronlab::grb
