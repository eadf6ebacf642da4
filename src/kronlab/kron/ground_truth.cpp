#include "kronlab/kron/ground_truth.hpp"

#include "kronlab/common/error.hpp"
#include "kronlab/graph/bipartite.hpp"
#include "kronlab/graph/butterflies.hpp"
#include "kronlab/graph/graph.hpp"
#include "kronlab/grb/masked.hpp"
#include "kronlab/grb/ops.hpp"
#include "kronlab/obs/stats.hpp"
#include "kronlab/parallel/parallel_for.hpp"

namespace kronlab::kron {

namespace {

void require_loop_free_undirected(const Adjacency& a, const char* where) {
  graph::require_undirected(a, where);
  if (!grb::has_no_self_loops(a)) {
    throw domain_error(std::string(where) + ": factor must be loop-free");
  }
}

} // namespace

FactorStats FactorStats::compute(const Adjacency& m) {
  KRONLAB_REQUIRE(m.nrows() == m.ncols(), "factor must be square");
  KRONLAB_KERNEL("kron/factor_stats");
  FactorStats st;
  st.d = grb::reduce_rows(m);
  const auto m2 = grb::mxm(m, m);
  st.w2 = grb::reduce_rows(m2);
  st.d2 = grb::ewise_mult(st.d, st.d);
  // diag(M⁴)_i = Σ_j (M²)_ij · (M²)_ji = Σ_j (M²)_ij² for symmetric M.
  st.diag4 = grb::Vector<count_t>(m.nrows(), 0);
  parallel_for(0, m.nrows(), [&](index_t i) {
    count_t acc = 0;
    for (const count_t v : m2.row_vals(i)) acc += v * v;
    st.diag4[i] = acc;
  });
  // M³ ∘ M via a masked product: never materializes M³ (whose fill-in is
  // quadratic for hub-heavy factors).
  st.m3_had_m = grb::mxm_masked(m, m2, m);
  return st;
}

grb::Vector<count_t> vertex_squares_formula(const Adjacency& a) {
  require_loop_free_undirected(a, "vertex_squares_formula");
  KRONLAB_KERNEL("kron/vertex_squares_formula");
  const auto st = FactorStats::compute(a);
  grb::Vector<count_t> s(a.nrows());
  parallel_for(0, a.nrows(), [&](index_t i) {
    const count_t num = st.diag4[i] - st.d2[i] - st.w2[i] + st.d[i];
    KRONLAB_DBG_ASSERT(num % 2 == 0, "Def. 8 numerator must be even");
    s[i] = num / 2;
  });
  return s;
}

grb::Csr<count_t> edge_squares_formula(const Adjacency& a) {
  require_loop_free_undirected(a, "edge_squares_formula");
  KRONLAB_KERNEL("kron/edge_squares_formula");
  // A³ restricted to A's structure — masked, so A³'s fill-in is never
  // materialized, and its values ride on A's pattern entry for entry.
  const auto a3 = grb::mxm_masked(a, grb::mxm(a, a), a);
  const auto d = grb::reduce_rows(a);
  // ◇ rides on A's pattern too: fill values edge-by-edge so edges with
  // zero squares are stored explicitly (ewise arithmetic would drop them).
  grb::Array<count_t> vals(static_cast<std::size_t>(a.nnz()));
  const auto& rp = a.row_ptr();
  const auto& a3v = a3.vals();
  parallel_for(0, a.nrows(), [&](index_t i) {
    const auto cols = a.row_cols(i);
    const auto base = static_cast<std::size_t>(rp[static_cast<std::size_t>(i)]);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      vals[base + k] = a3v[base + k] - d[i] - d[cols[k]] + 1;
    }
  });
  return {a, std::move(vals)};
}

FactoredVector degrees(const BipartiteKronecker& kp) {
  FactoredVector out(kp.left().nrows(), kp.right().nrows());
  out.add_term(1, grb::reduce_rows(kp.left()),
               grb::reduce_rows(kp.right()));
  return out;
}

FactoredVector two_hop_walks(const BipartiteKronecker& kp) {
  FactoredVector out(kp.left().nrows(), kp.right().nrows());
  out.add_term(1, graph::two_hop_walks(kp.left()),
               graph::two_hop_walks(kp.right()));
  return out;
}

FactoredVector vertex_squares(const BipartiteKronecker& kp) {
  // Def. 8 on the loop-free product, with every term factored:
  //   s_C = ½[ diag(M⁴)⊗diag(B⁴) − (d_M∘d_M)⊗(d_B∘d_B)
  //            − w²_M⊗w²_B + d_M⊗d_B ].
  const auto sm = FactorStats::compute(kp.left());
  const auto sb = FactorStats::compute(kp.right());
  FactoredVector out(kp.left().nrows(), kp.right().nrows(), /*divisor=*/2);
  out.add_term(+1, sm.diag4, sb.diag4);
  out.add_term(-1, sm.d2, sb.d2);
  out.add_term(-1, sm.w2, sb.w2);
  out.add_term(+1, sm.d, sb.d);
  return out;
}

FactoredMatrix edge_squares(const BipartiteKronecker& kp) {
  // Def. 9 on the loop-free product, factored:
  //   ◇_C = (M³∘M)⊗(B³∘B) − (d_M1ᵗ∘M)⊗(d_B1ᵗ∘B)
  //         − (1d_Mᵗ∘M)⊗(1d_Bᵗ∘B) + M⊗B.
  const auto sm = FactorStats::compute(kp.left());
  const auto sb = FactorStats::compute(kp.right());
  FactoredMatrix out(kp.left().nrows(), kp.right().nrows());
  out.add_term(+1, sm.m3_had_m, sb.m3_had_m);
  out.add_term(-1, grb::row_scale(kp.left(), sm.d),
               grb::row_scale(kp.right(), sb.d));
  out.add_term(-1, grb::col_scale(kp.left(), sm.d),
               grb::col_scale(kp.right(), sb.d));
  out.add_term(+1, kp.left(), kp.right());
  return out;
}

count_t global_squares(const BipartiteKronecker& kp) {
  // Each square contributes 4 to Σ_p s_C(p).
  return vertex_squares(kp).reduce() / 4;
}

FactoredVector vertex_squares_thm3(const Adjacency& a, const Adjacency& b) {
  require_loop_free_undirected(a, "vertex_squares_thm3");
  require_loop_free_undirected(b, "vertex_squares_thm3");
  const auto sa = FactorStats::compute(a);
  const auto sb = FactorStats::compute(b);
  const auto s_a = vertex_squares_formula(a);
  const auto s_b = vertex_squares_formula(b);

  // diag(A⁴) rewritten as 2s + d² + w² − d, exactly as the theorem prints.
  const auto closed4 = [](const grb::Vector<count_t>& s,
                          const FactorStats& st) {
    auto v = grb::scale(s, count_t{2});
    v = grb::ewise_add(v, st.d2);
    v = grb::ewise_add(v, st.w2);
    return grb::ewise_sub(v, st.d);
  };

  FactoredVector out(a.nrows(), b.nrows(), /*divisor=*/2);
  out.add_term(+1, closed4(s_a, sa), closed4(s_b, sb));
  out.add_term(-1, sa.d2, sb.d2);
  out.add_term(-1, sa.w2, sb.w2);
  out.add_term(+1, sa.d, sb.d);
  return out;
}

FactoredVector vertex_squares_thm4(const Adjacency& a, const Adjacency& b) {
  require_loop_free_undirected(a, "vertex_squares_thm4");
  require_loop_free_undirected(b, "vertex_squares_thm4");
  if (!graph::is_bipartite(a)) {
    throw domain_error("vertex_squares_thm4: factor A must be bipartite "
                       "(diag(A³) = 0 is used)");
  }
  const auto sa = FactorStats::compute(a);
  const auto sb = FactorStats::compute(b);
  const auto s_a = vertex_squares_formula(a);
  const auto s_b = vertex_squares_formula(b);
  const auto one_a = grb::ones<count_t>(a.nrows());

  // diag((A+I)⁴) = diag(A⁴ + 4A³ + 6A² + 4A + I)
  //             = 2s_A + d_A² + w²_A + 5d_A + 1   (A bipartite, loop-free)
  auto g1 = grb::scale(s_a, count_t{2});
  g1 = grb::ewise_add(g1, sa.d2);
  g1 = grb::ewise_add(g1, sa.w2);
  g1 = grb::ewise_add(g1, grb::scale(sa.d, count_t{5}));
  g1 = grb::ewise_add(g1, one_a);

  // diag(B⁴) = 2s_B + d_B² + w²_B − d_B.
  auto h1 = grb::scale(s_b, count_t{2});
  h1 = grb::ewise_add(h1, sb.d2);
  h1 = grb::ewise_add(h1, sb.w2);
  h1 = grb::ewise_sub(h1, sb.d);

  // (A+I)·1 = d_A + 1;  (A+I)²·1 = w²_A + 2d_A + 1;
  // ((A+I)1)∘((A+I)1) = d_A² + 2d_A + 1.
  const auto d_plus_1 = grb::shift(sa.d, count_t{1});
  auto w2_m = grb::ewise_add(sa.w2, grb::scale(sa.d, count_t{2}));
  w2_m = grb::ewise_add(w2_m, one_a);
  auto d2_m = grb::ewise_add(sa.d2, grb::scale(sa.d, count_t{2}));
  d2_m = grb::ewise_add(d2_m, one_a);

  // Def. 8 signs: + diag(C⁴) − C1∘C1 − C²1 + C1  (see header note on the
  // published statement's typo).
  FactoredVector out(a.nrows(), b.nrows(), /*divisor=*/2);
  out.add_term(+1, g1, h1);
  out.add_term(-1, d2_m, sb.d2);
  out.add_term(-1, w2_m, sb.w2);
  out.add_term(+1, d_plus_1, sb.d);
  return out;
}

count_t vertex_squares_pointwise_thm4(count_t s_i, count_t d_i,
                                      count_t w2_i, count_t s_k,
                                      count_t d_k, count_t w2_k) {
  const count_t t1 = (2 * s_i + d_i * d_i + w2_i + 5 * d_i + 1) *
                     (2 * s_k + d_k * d_k + w2_k - d_k);
  const count_t t2 = (d_i + 1) * (d_i + 1) * d_k * d_k; // C1∘C1
  const count_t t3 = (w2_i + 2 * d_i + 1) * w2_k;       // C²1
  const count_t t4 = (d_i + 1) * d_k;                   // C1
  const count_t num = t1 - t2 - t3 + t4;
  KRONLAB_DBG_ASSERT(num % 2 == 0, "Thm 4 numerator must be even");
  return num / 2;
}

count_t edge_squares_pointwise_thm5(count_t sq_ij, count_t d_i, count_t d_j,
                                    count_t sq_kl, count_t d_k,
                                    count_t d_l) {
  return 1 + (sq_ij + d_i + d_j - 1) * (sq_kl + d_k + d_l - 1) -
         d_i * d_k - d_j * d_l;
}

GroundTruthCheck verify_ground_truth(const BipartiteKronecker& kp) {
  KRONLAB_KERNEL("kron/verify_ground_truth");
  GroundTruthCheck check;
  const auto c = kp.materialize();

  const auto truth_v = vertex_squares(kp).materialize();
  const auto direct_v = graph::vertex_butterflies(c);
  check.vertex_ok = truth_v == direct_v;
  check.vertices_checked = c.nrows();

  const auto factored_e = edge_squares(kp);
  const auto direct_e = graph::edge_butterflies(c);
  check.edge_ok = true;
  for (index_t p = 0; p < c.nrows(); ++p) {
    const auto cols = direct_e.row_cols(p);
    const auto vals = direct_e.row_vals(p);
    for (std::size_t e = 0; e < cols.size(); ++e) {
      if (factored_e.at(p, cols[e]) != vals[e]) {
        check.edge_ok = false;
      }
      ++check.edges_checked;
    }
  }

  check.global_factored = global_squares(kp);
  check.global_direct = graph::global_butterflies(c);
  check.global_ok = check.global_factored == check.global_direct;
  return check;
}

} // namespace kronlab::kron
