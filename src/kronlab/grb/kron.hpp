// kronlab/grb/kron.hpp
//
// Kronecker product of sparse matrices (Def. 4) — the GrB_kronecker
// counterpart — and the one walk over the product's stored entries.
//
// for_each_kron_entry is the only home of the product's entry order
// (DESIGN §8, "The product's entry order"): rows p = γ(i,k) = i·n_B + k
// in order, and within a row the columns γ(j,l) = j·ncols(B) + l, j-major
// over A's row i, then over B's row k, so they come out sorted.  The
// streamed edge lists, the durable stores' bytes, the resume cursor and
// the shard layout all follow it.  for_each_kron_row gives each row's
// size d_A(i)·d_B(k).
//
// Materialization is O(nnz(A)·nnz(B)) work and memory, parallelized over
// product rows.  The product-sized arrays are allocated untouched
// (grb::Array): one serial row pass writes row_ptr, and the fill pass
// writes every col_idx and vals slot, so each of their pages is first
// touched by the pool worker that fills it, and nothing is zeroed first.
// For products too large to materialize, use kron::EdgeStream
// (kronlab/kron/stream.hpp) instead.

#pragma once

#include <cstddef>
#include <span>

#include "kronlab/grb/csr.hpp"
#include "kronlab/parallel/parallel_for.hpp"

namespace kronlab::grb {

/// One factor's CSR structure, as the product walk reads it.  A Csr
/// converts implicitly; any other row-sorted CSR (FactoredMatrix's
/// term-row unions) is passed by its three parts.
struct KronFactor {
  std::span<const offset_t> row_ptr; ///< one offset per row, plus one
  std::span<const index_t> col_idx;  ///< sorted within each row
  index_t ncols;

  KronFactor(std::span<const offset_t> rp, std::span<const index_t> ci,
             index_t nc)
      : row_ptr(rp), col_idx(ci), ncols(nc) {}
  template <typename T>
  KronFactor(const Csr<T>& m) // implicit: every Csr is a factor
      : KronFactor(m.row_ptr(), m.col_idx(), m.ncols()) {}

  /// Row i's entries are col_idx[begin(i), begin(i + 1)).
  [[nodiscard]] std::size_t begin(index_t i) const {
    return static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(i)]);
  }
  [[nodiscard]] offset_t degree(index_t i) const {
    return static_cast<offset_t>(begin(i + 1) - begin(i));
  }
};

/// One stored entry C(p, q) = A(i, j)·B(k, l) of C = A ⊗ B.  `ea` and `eb`
/// are the positions of A(i, j) and B(k, l) in their factors' CSR arrays,
/// so any array aligned with a factor's entries is indexed by them.
struct KronEntry {
  index_t p, q, i, j, k, l;
  std::size_t ea, eb;
};

/// Visit fn(p, i, k, d_A(i)·d_B(k)) for product rows p = γ(i,k) in
/// [p_begin, p_end), in order: each row with its factor rows and its size.
template <typename Fn>
void for_each_kron_row(const KronFactor& a, const KronFactor& b,
                       index_t p_begin, index_t p_end, Fn&& fn) {
  if (p_begin >= p_end) return;
  const auto nb = static_cast<index_t>(b.row_ptr.size()) - 1;
  index_t i = p_begin / nb;
  index_t k = p_begin % nb;
  for (index_t p = p_begin; p < p_end; ++p) {
    fn(p, i, k, a.degree(i) * b.degree(k));
    if (++k == nb) {
      k = 0;
      ++i;
    }
  }
}

/// Visit fn(KronEntry) for the stored entries of product rows
/// [p_begin, p_end) of A ⊗ B, in the order above, after skipping the
/// first `skip` of them.  The skip costs O(skipped rows), not O(skipped
/// entries): whole rows go by their size d_A(i)·d_B(k), and the rest,
/// s < d_A(i)·d_B(k), splits as s = x·d_B(k) + y because the row runs
/// j-major — it starts at A's entry x of row i and B's entry y of row k.
template <typename Fn>
void for_each_kron_entry(const KronFactor& a, const KronFactor& b,
                         index_t p_begin, index_t p_end, count_t skip,
                         Fn&& fn) {
  // Locals, so that fn's stores cannot force a reload per entry.
  const index_t* a_cols = a.col_idx.data();
  const index_t* b_cols = b.col_idx.data();
  const index_t ncb = b.ncols;
  for_each_kron_row(a, b, p_begin, p_end,
                    [&](index_t p, index_t i, index_t k, offset_t size) {
    if (skip >= size) {
      skip -= size;
      return;
    }
    std::size_t x = 0;
    std::size_t y = 0;
    if (skip > 0) {
      x = static_cast<std::size_t>(skip / b.degree(k));
      y = static_cast<std::size_t>(skip % b.degree(k));
      skip = 0;
    }
    const std::size_t ea_end = a.begin(i + 1);
    const std::size_t eb_begin = b.begin(k);
    const std::size_t eb_end = b.begin(k + 1);
    for (std::size_t ea = a.begin(i) + x; ea < ea_end; ++ea, y = 0) {
      const index_t j = a_cols[ea];
      for (std::size_t eb = eb_begin + y; eb < eb_end; ++eb) {
        const index_t l = b_cols[eb];
        fn(KronEntry{p, j * ncb + l, i, j, k, l, ea, eb});
      }
    }
  });
  KRONLAB_DBG_ASSERT(skip == 0, "skip past the rows' entries");
}

template <typename T>
Csr<T> kron(const Csr<T>& a, const Csr<T>& b) {
  const index_t m = a.nrows() * b.nrows();
  const index_t n = a.ncols() * b.ncols();

  // One serial pass: row_ptr is product-row-sized, not entry-sized.
  Array<offset_t> row_ptr(static_cast<std::size_t>(m) + 1);
  row_ptr[0] = 0;
  for_each_kron_row(a, b, 0, m,
                    [&](index_t p, index_t, index_t, offset_t size) {
                      const auto r = static_cast<std::size_t>(p);
                      row_ptr[r + 1] = row_ptr[r] + size;
                    });

  const auto total = static_cast<std::size_t>(row_ptr.back());
  Array<index_t> col_idx(total);
  Array<T> vals(total);

  parallel_for(
      0, m,
      [&](index_t p) {
        auto o =
            static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(p)]);
        for_each_kron_entry(a, b, p, p + 1, 0, [&](const KronEntry& e) {
          col_idx[o] = e.q;
          vals[o] = a.vals()[e.ea] * b.vals()[e.eb];
          ++o;
        });
      },
      global_pool(), parallel_grain);
  return Csr<T>(m, n, std::move(row_ptr), std::move(col_idx),
                std::move(vals));
}

} // namespace kronlab::grb
