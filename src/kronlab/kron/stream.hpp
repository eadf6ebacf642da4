// kronlab/kron/stream.hpp
//
// Streaming edge generation for Kronecker products.
//
// A product with |E_C| = nnz(M)·nnz(B)/2 edges can be far too large to
// materialize; EdgeStream visits every stored (directed) entry of
// C = M ⊗ B from the factor CSRs alone, in O(1) memory per edge.  This is
// the generator a massive-scale benchmark harness uses: stream edges to
// disk / to the system under test, while the factored ground truth
// (kron/ground_truth.hpp) provides the answers.  The entries come from
// grb::for_each_kron_entry (grb/kron.hpp), in its row-major,
// column-ascending order.
//
// GroundTruthStream additionally joins each edge with its exact 4-cycle
// participation ◇_pq on the fly, from per-entry tables aligned with the
// factors' CSR entries — the "GraphBLAS code that samples 4-cycle counts
// at edges without materializing the product" the paper sketches in §I.

#pragma once

#include <iosfwd>

#include "kronlab/grb/kron.hpp"
#include "kronlab/kron/ground_truth.hpp"
#include "kronlab/kron/product.hpp"

namespace kronlab::kron {

class EdgeStream {
public:
  explicit EdgeStream(const BipartiteKronecker& kp) : kp_(&kp) {}

  /// Visit fn(p, q) for every stored entry of C, rows in order.  Each
  /// undirected edge is seen twice (as (p,q) and (q,p)) — exactly the CSR
  /// entry set.
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    grb::for_each_kron_entry(
        kp_->left(), kp_->right(), 0, kp_->num_vertices(), 0,
        [&](const grb::KronEntry& e) { fn(e.p, e.q); });
  }

  /// Visit fn(p, q) for every undirected edge once (p < q).
  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    for_each_entry([&](index_t p, index_t q) {
      if (p < q) fn(p, q);
    });
  }

  /// Write each undirected edge once as "p q" (1-based) with a header line.
  void write_edge_list(std::ostream& out) const;

private:
  const BipartiteKronecker* kp_;
};

/// Streams (p, q, ◇_pq): each product edge with its exact 4-cycle count.
///
/// Construction computes each factor's FactorStats (O(nnz(M)+nnz(B))
/// memory); streaming then costs O(1) per edge via the factored identity
///   ◇_pq = (M³∘M)_ij·(B³∘B)_kl − d_M(i)·d_B(k) − d_M(j)·d_B(l) + 1.
/// M³∘M rides on M's pattern, so the walk's entry positions index it.
class GroundTruthStream {
public:
  explicit GroundTruthStream(const BipartiteKronecker& kp)
      : kp_(&kp), m_(FactorStats::compute(kp.left())),
        b_(FactorStats::compute(kp.right())) {}

  /// Visit fn(p, q, squares) for every stored entry.
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    const auto& m3 = m_.m3_had_m.vals();
    const auto& b3 = b_.m3_had_m.vals();
    grb::for_each_kron_entry(
        kp_->left(), kp_->right(), 0, kp_->num_vertices(), 0,
        [&](const grb::KronEntry& e) {
          fn(e.p, e.q,
             m3[e.ea] * b3[e.eb] - m_.d[e.i] * b_.d[e.k] -
                 m_.d[e.j] * b_.d[e.l] + 1);
        });
  }

private:
  const BipartiteKronecker* kp_;
  FactorStats m_; ///< the left factor's degrees and M³ ∘ M
  FactorStats b_; ///< the right factor's degrees and B³ ∘ B
};

} // namespace kronlab::kron
