// kronlab/grb/masked.hpp
//
// Masked matrix multiply — the GraphBLAS `GrB_mxm(C, Mask, ...)` pattern.
//
// (A·B)∘mask computed without forming A·B: only accumulator entries whose
// column appears in the mask's row survive.  This is the kernel behind
// "count structures only where edges exist" idioms (triangle counting's
// A²∘A, this paper's M³∘M), and it is what keeps FactorStats cheap on
// factors whose cube would be dense.

#pragma once

#include "kronlab/grb/csr.hpp"
#include "kronlab/grb/ops.hpp"
#include "kronlab/grb/semiring.hpp"
#include "kronlab/obs/stats.hpp"
#include "kronlab/parallel/parallel_for.hpp"

namespace kronlab::grb {

/// C = (A·B) ∘ structure(mask), over semiring S.  The mask contributes
/// structure only; output values are the semiring accumulation.  Entries
/// whose accumulated value equals S::zero() are kept (with that value) so
/// the result has exactly the mask's structure restricted to rows/cols in
/// range — callers that want them dropped can filter.
template <typename T, typename S = PlusTimes<T>>
Csr<T> mxm_masked(const Csr<T>& mask, const Csr<T>& a, const Csr<T>& b) {
  KRONLAB_REQUIRE(a.ncols() == b.nrows(), "mxm_masked shape mismatch");
  KRONLAB_REQUIRE(mask.nrows() == a.nrows() && mask.ncols() == b.ncols(),
                  "mask shape mismatch");
  KRONLAB_KERNEL("grb/mxm_masked");
  std::vector<T> vals(static_cast<std::size_t>(mask.nnz()), S::zero());
  const auto& mrp = mask.row_ptr();

  // Dense gather over B's columns, one accumulator per worker (not per
  // chunk); hub rows are load-balanced by the dynamic schedule.
  parallel_for_range_dynamic_scratch(
      0, mask.nrows(),
      [&](std::size_t) {
        return detail::SpgemmScratch<T>(b.ncols(), S::zero());
      },
      [&](detail::SpgemmScratch<T>& ws, index_t lo, index_t hi) {
    auto& acc = ws.acc;
    auto& touched = ws.touched;
    for (index_t i = lo; i < hi; ++i) {
      const auto mcols = mask.row_cols(i);
      if (mcols.empty()) continue;
      touched.clear();
      const auto acols = a.row_cols(i);
      const auto avals = a.row_vals(i);
      for (std::size_t ka = 0; ka < acols.size(); ++ka) {
        const index_t j = acols[ka];
        const T va = avals[ka];
        const auto bcols = b.row_cols(j);
        const auto bvals = b.row_vals(j);
        for (std::size_t kb = 0; kb < bcols.size(); ++kb) {
          auto& slot = acc[static_cast<std::size_t>(bcols[kb])];
          if (slot == S::zero()) touched.push_back(bcols[kb]);
          slot = S::add(slot, S::mult(va, bvals[kb]));
        }
      }
      const auto base = static_cast<std::size_t>(mrp[static_cast<std::size_t>(i)]);
      for (std::size_t km = 0; km < mcols.size(); ++km) {
        vals[base + km] = acc[static_cast<std::size_t>(mcols[km])];
      }
      for (const index_t c : touched) {
        acc[static_cast<std::size_t>(c)] = S::zero();
      }
    }
  });
  return Csr<T>(mask.nrows(), mask.ncols(), mask.row_ptr(),
                mask.col_idx(), std::move(vals));
}

/// Structure-only select: keep entries of `a` whose (value) satisfies
/// `pred` — GraphBLAS GrB_select with a value predicate.
template <typename T, typename Pred>
Csr<T> select(const Csr<T>& a, Pred&& pred) {
  Coo<T> coo(a.nrows(), a.ncols());
  for (index_t i = 0; i < a.nrows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (pred(i, cols[k], vals[k])) coo.push(i, cols[k], vals[k]);
    }
  }
  return Csr<T>::from_coo(coo);
}

/// Extract the sub-matrix a[rows, cols] (GraphBLAS GrB_extract with index
/// lists).  Lists must be strictly increasing.
template <typename T>
Csr<T> extract(const Csr<T>& a, const std::vector<index_t>& rows,
               const std::vector<index_t>& cols) {
  for (std::size_t k = 1; k < rows.size(); ++k) {
    KRONLAB_REQUIRE(rows[k - 1] < rows[k], "rows must be increasing");
  }
  for (std::size_t k = 1; k < cols.size(); ++k) {
    KRONLAB_REQUIRE(cols[k - 1] < cols[k], "cols must be increasing");
  }
  // Column renumbering map.
  std::vector<index_t> col_map(static_cast<std::size_t>(a.ncols()), -1);
  for (std::size_t k = 0; k < cols.size(); ++k) {
    KRONLAB_REQUIRE(cols[k] >= 0 && cols[k] < a.ncols(),
                    "column out of range");
    col_map[static_cast<std::size_t>(cols[k])] =
        static_cast<index_t>(k);
  }
  Coo<T> coo(static_cast<index_t>(rows.size()),
             static_cast<index_t>(cols.size()));
  for (std::size_t r = 0; r < rows.size(); ++r) {
    KRONLAB_REQUIRE(rows[r] >= 0 && rows[r] < a.nrows(),
                    "row out of range");
    const auto acols = a.row_cols(rows[r]);
    const auto avals = a.row_vals(rows[r]);
    for (std::size_t k = 0; k < acols.size(); ++k) {
      const index_t c = col_map[static_cast<std::size_t>(acols[k])];
      if (c >= 0) coo.push(static_cast<index_t>(r), c, avals[k]);
    }
  }
  return Csr<T>::from_coo(coo);
}

} // namespace kronlab::grb
