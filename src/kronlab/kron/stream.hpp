// kronlab/kron/stream.hpp
//
// Streaming edge generation for Kronecker products.
//
// A product with |E_C| = nnz(M)·nnz(B)/2 edges can be far too large to
// materialize; EdgeStream visits every stored (directed) entry of
// C = M ⊗ B in row-major order from the factor CSRs alone, in O(1) memory
// per edge.  This is the generator a massive-scale benchmark harness uses:
// stream edges to disk / to the system under test, while the factored
// ground truth (kron/ground_truth.hpp) provides the answers.
//
// GroundTruthStream additionally joins each edge with its exact 4-cycle
// participation ◇_pq on the fly, using factor-aligned per-edge tables —
// the "GraphBLAS code that samples 4-cycle counts at edges without
// materializing the product" the paper sketches in §I.

#pragma once

#include <iosfwd>

#include "kronlab/grb/ops.hpp"
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
    const auto& m = kp_->left();
    const auto& b = kp_->right();
    const index_t nb = b.nrows();
    const index_t ncb = b.ncols();
    for (index_t i = 0; i < m.nrows(); ++i) {
      const auto mc = m.row_cols(i);
      for (index_t k = 0; k < nb; ++k) {
        const index_t p = i * nb + k;
        const auto bc = b.row_cols(k);
        for (const index_t j : mc) {
          const index_t base = j * ncb;
          for (const index_t l : bc) fn(p, base + l);
        }
      }
    }
  }

  /// Visit fn(p, q) for every undirected edge once (p < q).
  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    for_each_entry([&](index_t p, index_t q) {
      if (p < q) fn(p, q);
    });
  }

  /// Count stored entries by streaming (tests compare against
  /// nnz(M)·nnz(B)).
  [[nodiscard]] count_t count_entries() const;

  /// Write each undirected edge once as "p q" (1-based) with a header line.
  void write_edge_list(std::ostream& out) const;

private:
  const BipartiteKronecker* kp_;
};

/// Streams (p, q, ◇_pq): each product edge with its exact 4-cycle count.
///
/// Construction precomputes factor-aligned tables (O(nnz(M)+nnz(B))
/// memory); streaming then costs O(1) per edge via the factored identity
///   ◇_pq = (M³∘M)_ij·(B³∘B)_kl − d_M(i)·d_B(k) − d_M(j)·d_B(l) + 1.
class GroundTruthStream {
public:
  explicit GroundTruthStream(const BipartiteKronecker& kp);

  /// Visit fn(p, q, squares) for every stored entry.
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    const auto& m = kp_->left();
    const auto& b = kp_->right();
    const index_t nb = b.nrows();
    const index_t ncb = b.ncols();
    const auto& mrp = m.row_ptr();
    const auto& brp = b.row_ptr();
    for (index_t i = 0; i < m.nrows(); ++i) {
      const auto mc = m.row_cols(i);
      const auto m_off = static_cast<std::size_t>(mrp[static_cast<std::size_t>(i)]);
      for (index_t k = 0; k < nb; ++k) {
        const index_t p = i * nb + k;
        const auto bc = b.row_cols(k);
        const auto b_off =
            static_cast<std::size_t>(brp[static_cast<std::size_t>(k)]);
        for (std::size_t em = 0; em < mc.size(); ++em) {
          const index_t j = mc[em];
          const count_t m3 = m3_aligned_[m_off + em];
          const count_t dj = d_m_[j];
          const index_t base = j * ncb;
          for (std::size_t eb = 0; eb < bc.size(); ++eb) {
            const index_t l = bc[eb];
            const count_t sq = m3 * b3_aligned_[b_off + eb] -
                               d_m_[i] * d_b_[k] - dj * d_b_[l] + 1;
            fn(p, base + l, sq);
          }
        }
      }
    }
  }

private:
  const BipartiteKronecker* kp_;
  grb::Vector<count_t> d_m_;
  grb::Vector<count_t> d_b_;
  std::vector<count_t> m3_aligned_; ///< (M³)_ij aligned with M's CSR entries
  std::vector<count_t> b3_aligned_; ///< (B³)_kl aligned with B's CSR entries
};

} // namespace kronlab::kron
