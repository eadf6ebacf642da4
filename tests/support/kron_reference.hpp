// tests/support/kron_reference.hpp
//
// The Kronecker product by Def. 4, entry by entry through Coo and
// from_coo.  It shares no code with grb::for_each_kron_entry, the one walk
// that grb::kron, the edge streams, the partitioned streams and the resume
// cursor are built on, so tests of those walks compare against it rather
// than against each other.

#pragma once

#include <utility>
#include <vector>

#include "kronlab/graph/graph.hpp"
#include "kronlab/grb/coo.hpp"
#include "kronlab/grb/csr.hpp"
#include "kronlab/kron/index_map.hpp"
#include "kronlab/kron/product.hpp"

namespace kronlab::test_support {

/// A ⊗ B: every (i, j, k, l) of stored factor entries pushed as
/// C(γ(i,k), γ(j,l)) = A(i,j)·B(k,l), sorted by from_coo.
inline grb::Csr<count_t> kron_reference(const grb::Csr<count_t>& a,
                                        const grb::Csr<count_t>& b) {
  grb::Coo<count_t> coo(a.nrows() * b.nrows(), a.ncols() * b.ncols());
  for (index_t i = 0; i < a.nrows(); ++i) {
    const auto acols = a.row_cols(i);
    const auto avals = a.row_vals(i);
    for (index_t k = 0; k < b.nrows(); ++k) {
      const auto bcols = b.row_cols(k);
      const auto bvals = b.row_vals(k);
      for (std::size_t x = 0; x < acols.size(); ++x) {
        for (std::size_t y = 0; y < bcols.size(); ++y) {
          coo.push(kron::gamma(i, k, b.nrows()),
                   kron::gamma(acols[x], bcols[y], b.ncols()),
                   avals[x] * bvals[y]);
        }
      }
    }
  }
  return grb::Csr<count_t>::from_coo(coo);
}

/// The stored entries (p, q) of rows [p_begin, p_end) of `c`, row-major.
inline std::vector<std::pair<index_t, index_t>> entries_of_rows(
    const grb::Csr<count_t>& c, index_t p_begin, index_t p_end) {
  std::vector<std::pair<index_t, index_t>> out;
  for (index_t p = p_begin; p < p_end; ++p) {
    for (const index_t q : c.row_cols(p)) out.emplace_back(p, q);
  }
  return out;
}

/// A raw product whose factors both have isolated vertices (empty rows),
/// first, last and in between.  M is a triangle with a tail, a self loop
/// on the tail's end and isolated vertices 0, 3 and 7; B is a 4-cycle
/// plus a pendant, with isolated vertices 0, 2 and 7.
inline kron::BipartiteKronecker product_with_isolated_vertices() {
  auto m = graph::from_undirected_edges(
      8, {{1, 2}, {2, 4}, {4, 1}, {4, 5}, {5, 6}, {6, 6}});
  auto b = graph::from_undirected_edges(
      8, {{1, 3}, {3, 4}, {4, 5}, {5, 1}, {5, 6}});
  return kron::BipartiteKronecker::raw(std::move(m), std::move(b));
}

} // namespace kronlab::test_support
