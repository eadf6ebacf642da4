#include "kronlab/kron/oracle.hpp"

#include "kronlab/common/error.hpp"

namespace kronlab::kron {

namespace {

std::vector<index_t> entry_rows(const Adjacency& a) {
  std::vector<index_t> rows(static_cast<std::size_t>(a.nnz()));
  std::size_t o = 0;
  for (index_t i = 0; i < a.nrows(); ++i) {
    const auto deg = static_cast<std::size_t>(a.row_degree(i));
    for (std::size_t k = 0; k < deg; ++k) rows[o++] = i;
  }
  return rows;
}

} // namespace

GroundTruthOracle::GroundTruthOracle(const BipartiteKronecker& kp)
    : kp_(&kp),
      stats_m_(FactorStats::compute(kp.left())),
      stats_b_(FactorStats::compute(kp.right())),
      squares_(vertex_squares(kp)),
      entry_row_m_(entry_rows(kp.left())),
      entry_row_b_(entry_rows(kp.right())) {}

VertexRecord GroundTruthOracle::vertex(index_t p) const {
  const auto sh = kp_->shape();
  const auto [i, k] = sh.split_row(p);
  VertexRecord r;
  r.p = p;
  r.degree = stats_m_.d[i] * stats_b_.d[k];
  r.two_hop = stats_m_.w2[i] * stats_b_.w2[k];
  r.squares = squares_.at(p);
  // Interior 3-paths at p: (d_p − 1)·(w²_p − d_p); each 4-cycle at p
  // closes two of them.
  const count_t denom = (r.degree - 1) * (r.two_hop - r.degree);
  r.closure = denom > 0 ? 2.0 * static_cast<double>(r.squares) /
                              static_cast<double>(denom)
                        : 0.0;
  return r;
}

count_t GroundTruthOracle::edge_squares_at(index_t i, index_t j, index_t k,
                                           index_t l) const {
  // Def. 9 on the product, per entry:
  //   ◇_pq = (M³)_ij·(B³)_kl − d_p − d_q + 1.
  const count_t m3 = stats_m_.m3_had_m.at(i, j);
  const count_t b3 = stats_b_.m3_had_m.at(k, l);
  return m3 * b3 - stats_m_.d[i] * stats_b_.d[k] -
         stats_m_.d[j] * stats_b_.d[l] + 1;
}

std::optional<EdgeRecord> GroundTruthOracle::try_edge(index_t p,
                                                      index_t q) const {
  const auto sh = kp_->shape();
  if (p < 0 || p >= sh.rows() || q < 0 || q >= sh.cols()) {
    return std::nullopt;
  }
  const auto [i, k] = sh.split_row(p);
  const auto [j, l] = sh.split_col(q);
  if (!kp_->left().has(i, j) || !kp_->right().has(k, l)) {
    return std::nullopt;
  }
  EdgeRecord r;
  r.p = p;
  r.q = q;
  r.degree_p = stats_m_.d[i] * stats_b_.d[k];
  r.degree_q = stats_m_.d[j] * stats_b_.d[l];
  r.squares = edge_squares_at(i, j, k, l);
  const count_t denom = (r.degree_p - 1) * (r.degree_q - 1);
  r.gamma = denom > 0 ? static_cast<double>(r.squares) /
                            static_cast<double>(denom)
                      : 0.0;
  return r;
}

bool GroundTruthOracle::has_edge(index_t p, index_t q) const {
  const auto sh = kp_->shape();
  if (p < 0 || p >= sh.rows() || q < 0 || q >= sh.cols()) return false;
  const auto [i, k] = sh.split_row(p);
  const auto [j, l] = sh.split_col(q);
  return kp_->left().has(i, j) && kp_->right().has(k, l);
}

EdgeRecord GroundTruthOracle::edge(index_t p, index_t q) const {
  const auto r = try_edge(p, q);
  KRONLAB_REQUIRE(r.has_value(), "(p,q) is not an edge of the product");
  return *r;
}

VertexRecord GroundTruthOracle::sample_vertex(Rng& rng) const {
  return vertex(rng.uniform(0, num_vertices() - 1));
}

EdgeRecord GroundTruthOracle::sample_edge(Rng& rng) const {
  const auto& m = kp_->left();
  const auto& b = kp_->right();
  KRONLAB_REQUIRE(m.nnz() > 0 && b.nnz() > 0, "product has no edges");
  // A uniform stored entry of M × a uniform stored entry of B is a uniform
  // stored entry of C; every undirected edge has exactly two stored
  // entries, so the induced undirected edge is uniform too.
  const auto em = static_cast<std::size_t>(rng.uniform(0, m.nnz() - 1));
  const auto eb = static_cast<std::size_t>(rng.uniform(0, b.nnz() - 1));
  const index_t i = entry_row_m_[em];
  const index_t j = m.col_idx()[em];
  const index_t k = entry_row_b_[eb];
  const index_t l = b.col_idx()[eb];
  const auto sh = kp_->shape();
  return edge(sh.row(i, k), sh.col(j, l));
}

std::map<count_t, index_t> GroundTruthOracle::degree_histogram() const {
  std::map<count_t, index_t> hist_m;
  for (index_t i = 0; i < stats_m_.d.size(); ++i) ++hist_m[stats_m_.d[i]];
  std::map<count_t, index_t> hist_b;
  for (index_t k = 0; k < stats_b_.d.size(); ++k) ++hist_b[stats_b_.d[k]];
  std::map<count_t, index_t> out;
  for (const auto& [dm, nm] : hist_m) {
    for (const auto& [db, nb] : hist_b) {
      out[dm * db] += nm * nb;
    }
  }
  return out;
}

grb::Vector<double> GroundTruthOracle::local_closure() const {
  grb::Vector<double> out(num_vertices(), 0.0);
  for (index_t p = 0; p < num_vertices(); ++p) {
    out[p] = vertex(p).closure;
  }
  return out;
}

} // namespace kronlab::kron
