// kronlab/graph/butterflies.hpp
//
// Direct (combinatorial) 4-cycle — "square", "butterfly" — counting.
//
// These counters are deliberately formula-independent: they enumerate
// wedges, so they serve as the ground-truth *validators* for the Kronecker
// formulas of §III-B (and conversely, the formulas validate them — that
// mutual check is the paper's use case).
//
// Algorithm (wedge counting): for a vertex i, let cnt[k] = |N(i) ∩ N(k)| be
// the number of wedges i–·–k for every second-neighbor k.  Then
//   s_i = Σ_{k≠i} C(cnt[k], 2)          (vertex participation, Def. 8)
//   ◇_ij = Σ_{k∈N(j)\{i}} (cnt[k] − 1)  (edge participation, Def. 9)
//   #C4 = ¼ Σ_i Σ_{k≠i} C(cnt[k], 2)    (each square has two diagonals,
//                                        each seen from both endpoints)
// Work is O(Σ_i Σ_{j∈N(i)} d_j) = O(Σ_j d_j²), the cost the paper quotes
// for the shortened-BFS-into-second-neighborhood approach.
//
// The public counters run the one wedge engine (graph/wedges.hpp), which keeps
// only the wedges whose apex is the largest id, so each 4-cycle is seen once,
// from its largest vertex, and credited from there.  The *_reference and
// *_naive counters are the independent oracles the tests and the fig3 bench
// compare the engine against: the reference kernels scan every wedge of every
// vertex with the full one-vertex table below, the naive ones enumerate
// 4-tuples.

#pragma once

#include <vector>

#include "kronlab/graph/graph.hpp"

namespace kronlab::graph {

/// Per-vertex 4-cycle participation s (Def. 8) via the wedge engine.
/// Requires an undirected, loop-free adjacency (domain_error otherwise).
grb::Vector<count_t> vertex_butterflies(const Adjacency& a);

/// Per-edge 4-cycle participation ◇ (Def. 9), same structure as `a`, via
/// the wedge engine.
grb::Csr<count_t> edge_butterflies(const Adjacency& a);

/// Reference per-vertex kernel: the full wedge table of every vertex,
/// unhalved.  Oracle for vertex_butterflies, bit for bit.
grb::Vector<count_t> vertex_butterflies_reference(const Adjacency& a);

/// Reference per-edge kernel; oracle for edge_butterflies.
grb::Csr<count_t> edge_butterflies_reference(const Adjacency& a);

/// Global number of 4-cycles via the wedge engine's scalar drain.
count_t global_butterflies(const Adjacency& a);

/// Brute-force O(n⁴) global count by enumerating ordered 4-tuples — an
/// independent oracle for testing on tiny graphs (n ≲ 64).
count_t global_butterflies_naive(const Adjacency& a);

/// Brute-force per-vertex counts, same regime as global_butterflies_naive.
grb::Vector<count_t> vertex_butterflies_naive(const Adjacency& a);

/// Brute-force per-edge counts on tiny graphs.
grb::Csr<count_t> edge_butterflies_naive(const Adjacency& a);

/// One vertex's full (unhalved) wedge table, the oracle side's building
/// block — the reference counters, tip peeling and the samplers share it;
/// the engine does not.  `fill(a, v, keep)` sets cnt[k] = |N(v) ∩ N(k)|
/// for every second neighbour k ≠ v that `keep(k)` admits and lists those
/// k in `touched`; `clear()` re-zeroes them in O(touched).
struct VertexWedgeTable {
  explicit VertexWedgeTable(index_t n)
      : cnt(static_cast<std::size_t>(n), 0) {}

  std::vector<count_t> cnt;
  std::vector<index_t> touched;

  template <typename Keep>
  void fill(const Adjacency& a, index_t v, Keep&& keep) {
    for (const index_t j : a.row_cols(v)) {
      for (const index_t k : a.row_cols(j)) {
        if (k == v || !keep(k)) continue;
        if (cnt[static_cast<std::size_t>(k)]++ == 0) touched.push_back(k);
      }
    }
  }
  void fill(const Adjacency& a, index_t v) {
    fill(a, v, [](index_t) { return true; });
  }

  void clear() {
    for (const index_t k : touched) cnt[static_cast<std::size_t>(k)] = 0;
    touched.clear();
  }
};

} // namespace kronlab::graph
