// kronlab/grb/ops.hpp
//
// Matrix kernels of the mini-GraphBLAS layer: mxv, mxm (Gustavson SpGEMM),
// element-wise add/mult (Hadamard), transpose, reductions, diagonal
// operators, and row/column scalings.
//
// All kernels are shape-checked at entry.  mxm and transpose parallelize
// over rows via the shared thread pool; the remaining kernels are
// memory-bound single passes that are applied to factor-sized matrices.

#pragma once

#include <vector>

#include "kronlab/common/error.hpp"
#include "kronlab/grb/csr.hpp"
#include "kronlab/grb/semiring.hpp"
#include "kronlab/grb/vector.hpp"
#include "kronlab/obs/stats.hpp"
#include "kronlab/parallel/parallel_for.hpp"

namespace kronlab::grb {

/// y = A x over semiring S (default plus-times).
template <typename T, typename S = PlusTimes<T>>
Vector<T> mxv(const Csr<T>& a, const Vector<T>& x) {
  KRONLAB_REQUIRE(a.ncols() == x.size(), "mxv shape mismatch");
  KRONLAB_KERNEL("grb/mxv");
  Vector<T> y(a.nrows(), S::zero());
  parallel_for_dynamic(0, a.nrows(), [&](index_t i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    T acc = S::zero();
    for (std::size_t k = 0; k < cols.size(); ++k) {
      acc = S::add(acc, S::mult(vals[k], x[cols[k]]));
    }
    y[i] = acc;
  });
  return y;
}

namespace detail {
/// Worker-local Gustavson accumulator, built once per worker by the
/// dynamic dispatcher and reused across chunks.
template <typename T>
struct SpgemmScratch {
  SpgemmScratch(index_t n, T zero)
      : acc(static_cast<std::size_t>(n), zero) {}
  std::vector<T> acc;
  std::vector<index_t> touched;
};
} // namespace detail

/// C = A·B over semiring S via row-wise Gustavson with a dense accumulator.
/// Intended for factor-sized operands (accumulator is O(ncols(B)) per
/// worker).
template <typename T, typename S = PlusTimes<T>>
Csr<T> mxm(const Csr<T>& a, const Csr<T>& b) {
  KRONLAB_REQUIRE(a.ncols() == b.nrows(), "mxm shape mismatch");
  KRONLAB_KERNEL("grb/mxm");
  const index_t m = a.nrows();
  const index_t n = b.ncols();

  std::vector<std::vector<index_t>> row_cols(static_cast<std::size_t>(m));
  std::vector<std::vector<T>> row_vals(static_cast<std::size_t>(m));

  // Row cost is Σ_j∈row deg(B_j): hub rows dominate on heavy-tailed
  // factors, so chunks are claimed dynamically.
  parallel_for_range_dynamic_scratch(
      0, m,
      [&](std::size_t) { return detail::SpgemmScratch<T>(n, S::zero()); },
      [&](detail::SpgemmScratch<T>& ws, index_t lo, index_t hi) {
        auto& acc = ws.acc;
        auto& touched = ws.touched;
        for (index_t i = lo; i < hi; ++i) {
          touched.clear();
          const auto acols = a.row_cols(i);
          const auto avals = a.row_vals(i);
          for (std::size_t ka = 0; ka < acols.size(); ++ka) {
            const index_t j = acols[ka];
            const T va = avals[ka];
            const auto bcols = b.row_cols(j);
            const auto bvals = b.row_vals(j);
            for (std::size_t kb = 0; kb < bcols.size(); ++kb) {
              const index_t c = bcols[kb];
              if (acc[static_cast<std::size_t>(c)] == S::zero()) {
                touched.push_back(c);
              }
              acc[static_cast<std::size_t>(c)] =
                  S::add(acc[static_cast<std::size_t>(c)],
                         S::mult(va, bvals[kb]));
            }
          }
          std::sort(touched.begin(), touched.end());
          auto& rc = row_cols[static_cast<std::size_t>(i)];
          auto& rv = row_vals[static_cast<std::size_t>(i)];
          rc.reserve(touched.size());
          rv.reserve(touched.size());
          for (const index_t c : touched) {
            const T v = acc[static_cast<std::size_t>(c)];
            acc[static_cast<std::size_t>(c)] = S::zero();
            if (v != S::zero()) { // additive cancellation can produce zeros
              rc.push_back(c);
              rv.push_back(v);
            }
          }
        }
      });

  std::vector<offset_t> row_ptr(static_cast<std::size_t>(m) + 1, 0);
  for (index_t i = 0; i < m; ++i) {
    row_ptr[static_cast<std::size_t>(i) + 1] =
        row_ptr[static_cast<std::size_t>(i)] +
        static_cast<offset_t>(row_cols[static_cast<std::size_t>(i)].size());
  }
  std::vector<index_t> col_idx(static_cast<std::size_t>(row_ptr.back()));
  std::vector<T> vals(static_cast<std::size_t>(row_ptr.back()));
  parallel_for_dynamic(0, m, [&](index_t i) {
    auto o = static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(i)]);
    const auto& rc = row_cols[static_cast<std::size_t>(i)];
    const auto& rv = row_vals[static_cast<std::size_t>(i)];
    for (std::size_t k = 0; k < rc.size(); ++k, ++o) {
      col_idx[o] = rc[k];
      vals[o] = rv[k];
    }
  });
  return Csr<T>(m, n, std::move(row_ptr), std::move(col_idx),
                std::move(vals));
}

/// Matrix power A^k (k >= 0) by repeated mxm; A must be square.
template <typename T, typename S = PlusTimes<T>>
Csr<T> matrix_power(const Csr<T>& a, int k) {
  KRONLAB_REQUIRE(a.nrows() == a.ncols(), "matrix_power requires square A");
  KRONLAB_REQUIRE(k >= 0, "matrix_power requires k >= 0");
  Csr<T> result = Csr<T>::identity(a.nrows());
  for (int i = 0; i < k; ++i) result = mxm<T, S>(result, a);
  return result;
}

namespace detail {
template <typename T, typename Combine>
Csr<T> ewise_merge(const Csr<T>& a, const Csr<T>& b, bool intersect,
                   Combine&& combine) {
  KRONLAB_REQUIRE(a.nrows() == b.nrows() && a.ncols() == b.ncols(),
                  "element-wise op shape mismatch");
  Coo<T> coo(a.nrows(), a.ncols());
  coo.reserve(intersect ? std::min(a.nnz(), b.nnz()) : a.nnz() + b.nnz());
  for (index_t i = 0; i < a.nrows(); ++i) {
    const auto ac = a.row_cols(i);
    const auto av = a.row_vals(i);
    const auto bc = b.row_cols(i);
    const auto bv = b.row_vals(i);
    std::size_t ka = 0, kb = 0;
    while (ka < ac.size() || kb < bc.size()) {
      if (kb == bc.size() || (ka < ac.size() && ac[ka] < bc[kb])) {
        if (!intersect) coo.push(i, ac[ka], combine(av[ka], T{}));
        ++ka;
      } else if (ka == ac.size() || bc[kb] < ac[ka]) {
        if (!intersect) coo.push(i, bc[kb], combine(T{}, bv[kb]));
        ++kb;
      } else {
        coo.push(i, ac[ka], combine(av[ka], bv[kb]));
        ++ka;
        ++kb;
      }
    }
  }
  return Csr<T>::from_coo(coo);
}
} // namespace detail

/// A + B (union merge).
template <typename T>
Csr<T> ewise_add(const Csr<T>& a, const Csr<T>& b) {
  return detail::ewise_merge(a, b, /*intersect=*/false,
                             [](T x, T y) { return x + y; });
}

/// A - B (union merge).
template <typename T>
Csr<T> ewise_sub(const Csr<T>& a, const Csr<T>& b) {
  return detail::ewise_merge(a, b, /*intersect=*/false,
                             [](T x, T y) { return x - y; });
}

/// Hadamard product A ∘ B (intersection merge).
template <typename T>
Csr<T> ewise_mult(const Csr<T>& a, const Csr<T>& b) {
  return detail::ewise_merge(a, b, /*intersect=*/true,
                             [](T x, T y) { return x * y; });
}

/// Aᵗ.
template <typename T>
Csr<T> transpose(const Csr<T>& a) {
  std::vector<offset_t> row_ptr(static_cast<std::size_t>(a.ncols()) + 1, 0);
  for (const index_t c : a.col_idx()) {
    ++row_ptr[static_cast<std::size_t>(c) + 1];
  }
  for (std::size_t i = 1; i < row_ptr.size(); ++i) row_ptr[i] += row_ptr[i - 1];
  std::vector<index_t> col_idx(static_cast<std::size_t>(a.nnz()));
  std::vector<T> vals(static_cast<std::size_t>(a.nnz()));
  std::vector<offset_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  for (index_t i = 0; i < a.nrows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto v = a.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const auto o =
          static_cast<std::size_t>(cursor[static_cast<std::size_t>(cols[k])]++);
      col_idx[o] = i;
      vals[o] = v[k];
    }
  }
  return Csr<T>(a.ncols(), a.nrows(), std::move(row_ptr),
                std::move(col_idx), std::move(vals));
}

/// y = xᵗ·A over semiring S (GraphBLAS vxm).  Scatter-based: cheaper than
/// transposing when x is used once.
template <typename T, typename S = PlusTimes<T>>
Vector<T> vxm(const Vector<T>& x, const Csr<T>& a) {
  KRONLAB_REQUIRE(x.size() == a.nrows(), "vxm shape mismatch");
  Vector<T> y(a.ncols(), S::zero());
  for (index_t i = 0; i < a.nrows(); ++i) {
    const T xi = x[i];
    if (xi == S::zero()) continue;
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      y[cols[k]] = S::add(y[cols[k]], S::mult(xi, vals[k]));
    }
  }
  return y;
}

/// Column sums 1ᵗ·A.
template <typename T>
Vector<T> reduce_cols(const Csr<T>& a) {
  return vxm(ones<T>(a.nrows()), a);
}

/// Row sums A·1 (the degree vector for an adjacency matrix).
template <typename T>
Vector<T> reduce_rows(const Csr<T>& a) {
  Vector<T> r(a.nrows(), T{0});
  parallel_for(0, a.nrows(), [&](index_t i) {
    T acc{0};
    for (const T v : a.row_vals(i)) acc += v;
    r[i] = acc;
  });
  return r;
}

/// Sum of all stored values, 1ᵗA1.
template <typename T>
T reduce(const Csr<T>& a) {
  return parallel_reduce<T>(
      0, a.nrows(), T{0},
      [&](index_t i) {
        T acc{0};
        for (const T v : a.row_vals(i)) acc += v;
        return acc;
      },
      [](T x, T y) { return x + y; });
}

/// diag(A) as a dense vector (Def. 6).
template <typename T>
Vector<T> diag_vector(const Csr<T>& a) {
  KRONLAB_REQUIRE(a.nrows() == a.ncols(), "diag requires a square matrix");
  Vector<T> d(a.nrows(), T{0});
  parallel_for(0, a.nrows(), [&](index_t i) { d[i] = a.at(i, i); });
  return d;
}

/// D_A = I ∘ A, the diagonal part as a matrix (Def. 6).
template <typename T>
Csr<T> diag_matrix(const Csr<T>& a) {
  return ewise_mult(a, Csr<T>::identity(a.nrows()));
}

/// A + I (adds full self loops; merges with any existing diagonal).
template <typename T>
Csr<T> add_identity(const Csr<T>& a) {
  KRONLAB_REQUIRE(a.nrows() == a.ncols(), "add_identity requires square A");
  return ewise_add(a, Csr<T>::identity(a.nrows()));
}

/// diag(u)·A — entry (i,j) becomes u[i]·A_ij.  For 0/1 adjacency A this is
/// the paper's (u 1ᵗ) ∘ A.
template <typename T>
Csr<T> row_scale(const Csr<T>& a, const Vector<T>& u) {
  KRONLAB_REQUIRE(u.size() == a.nrows(), "row_scale size mismatch");
  Csr<T> out = a;
  auto& vals = out.vals();
  const auto& rp = out.row_ptr();
  parallel_for(0, out.nrows(), [&](index_t i) {
    for (auto k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
      vals[static_cast<std::size_t>(k)] *= u[i];
    }
  });
  return out;
}

/// A·diag(v) — entry (i,j) becomes A_ij·v[j]; the paper's (1 vᵗ) ∘ A for
/// 0/1 adjacency A.
template <typename T>
Csr<T> col_scale(const Csr<T>& a, const Vector<T>& v) {
  KRONLAB_REQUIRE(v.size() == a.ncols(), "col_scale size mismatch");
  Csr<T> out = a;
  auto& vals = out.vals();
  const auto& ci = out.col_idx();
  parallel_for_range(0, static_cast<index_t>(vals.size()),
                     [&](index_t lo, index_t hi) {
                       for (index_t k = lo; k < hi; ++k) {
                         vals[static_cast<std::size_t>(k)] *=
                             v[ci[static_cast<std::size_t>(k)]];
                       }
                     });
  return out;
}

/// Scalar multiple s·A.
template <typename T>
Csr<T> scale(const Csr<T>& a, T s) {
  Csr<T> out = a;
  for (auto& v : out.vals()) v *= s;
  return out;
}

/// Apply `fn` to every stored value.
template <typename T, typename Fn>
Csr<T> apply(const Csr<T>& a, Fn&& fn) {
  Csr<T> out = a;
  for (auto& v : out.vals()) v = fn(v);
  return out;
}

/// True iff A == Aᵗ (values included).
template <typename T>
bool is_symmetric(const Csr<T>& a) {
  if (a.nrows() != a.ncols()) return false;
  return a == transpose(a);
}

/// True iff every diagonal entry is absent (no self loops, Def. 6).
template <typename T>
bool has_no_self_loops(const Csr<T>& a) {
  if (a.nrows() != a.ncols()) return false;
  for (index_t i = 0; i < a.nrows(); ++i) {
    if (a.has(i, i)) return false;
  }
  return true;
}

/// True iff every diagonal entry is present (full self loops, Def. 6).
template <typename T>
bool has_full_self_loops(const Csr<T>& a) {
  if (a.nrows() != a.ncols()) return false;
  for (index_t i = 0; i < a.nrows(); ++i) {
    if (!a.has(i, i)) return false;
  }
  return true;
}

} // namespace kronlab::grb
