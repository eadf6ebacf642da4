#include "kronlab/kron/clustering.hpp"

#include "kronlab/common/error.hpp"
#include "kronlab/grb/kron.hpp"
#include "kronlab/grb/ops.hpp"
#include "kronlab/obs/trace.hpp"

namespace kronlab::kron {

std::optional<double> edge_clustering(count_t squares, count_t d_i,
                                      count_t d_j) {
  const count_t denom = (d_i - 1) * (d_j - 1);
  if (denom <= 0) return std::nullopt;
  return static_cast<double>(squares) / static_cast<double>(denom);
}

grb::Csr<double> edge_clustering_matrix(const Adjacency& a) {
  KRONLAB_TRACE_SPAN("kron", "edge_clustering_matrix");
  const auto sq = edge_squares_formula(a);
  const auto d = grb::reduce_rows(a);
  grb::Array<double> vals(static_cast<std::size_t>(a.nnz()));
  const auto& rp = a.row_ptr();
  for (index_t i = 0; i < a.nrows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto sqv = sq.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const auto g = edge_clustering(sqv[k], d[i], d[cols[k]]);
      vals[static_cast<std::size_t>(rp[static_cast<std::size_t>(i)]) + k] =
          g.value_or(0.0);
    }
  }
  return {a, std::move(vals)};
}

double psi(count_t d_i, count_t d_j, count_t d_k, count_t d_l) {
  KRONLAB_REQUIRE(d_i >= 2 && d_j >= 2 && d_k >= 2 && d_l >= 2,
                  "psi requires all degrees >= 2 (Thm 6 hypothesis)");
  const auto num = static_cast<double>((d_i - 1) * (d_k - 1)) *
                   static_cast<double>((d_j - 1) * (d_l - 1));
  const auto den = static_cast<double>(d_i * d_k - 1) *
                   static_cast<double>(d_j * d_l - 1);
  return num / den;
}

std::vector<ClusteringSample> clustering_samples(
    const BipartiteKronecker& kp, index_t max_samples) {
  KRONLAB_TRACE_SPAN("kron", "clustering_samples");
  const auto& m = kp.left();
  const auto& b = kp.right();
  if (!grb::has_no_self_loops(m)) {
    throw domain_error(
        "clustering_samples: Thm 6 applies to Assumption 1(i) products "
        "(loop-free left factor)");
  }
  const auto d_m = grb::reduce_rows(m);
  const auto d_b = grb::reduce_rows(b);
  const auto sq_m = edge_squares_formula(m);
  const auto sq_b = edge_squares_formula(b);

  // One product row at a time, so the walk stops at the row that fills
  // the sample.
  std::vector<ClusteringSample> samples;
  const auto full = [&] {
    return max_samples > 0 &&
           static_cast<index_t>(samples.size()) >= max_samples;
  };
  for (index_t p = 0; p < kp.num_vertices() && !full(); ++p) {
    grb::for_each_kron_entry(m, b, p, p + 1, 0, [&](const grb::KronEntry& e) {
      const index_t i = e.i, j = e.j, k = e.k, l = e.l;
      if (full() || d_m[i] < 2 || d_m[j] < 2 || d_b[k] < 2 || d_b[l] < 2) {
        return;
      }
      if (e.p >= e.q) return; // each undirected edge once
      ClusteringSample s;
      s.p = e.p;
      s.q = e.q;
      // ◇_pq from the streaming identity (Def. 9 on the product).
      const count_t msq = sq_m.vals()[e.ea];
      const count_t bsq = sq_b.vals()[e.eb];
      const count_t sq_pq = edge_squares_pointwise_thm5(
          msq, d_m[i], d_m[j], bsq, d_b[k], d_b[l]);
      const count_t dp = d_m[i] * d_b[k];
      const count_t dq = d_m[j] * d_b[l];
      s.gamma_c = *edge_clustering(sq_pq, dp, dq);
      s.gamma_a = *edge_clustering(msq, d_m[i], d_m[j]);
      s.gamma_b = *edge_clustering(bsq, d_b[k], d_b[l]);
      s.psi = psi(d_m[i], d_m[j], d_b[k], d_b[l]);
      s.bound = s.psi * s.gamma_a * s.gamma_b;
      samples.push_back(s);
    });
  }
  return samples;
}

} // namespace kronlab::kron
