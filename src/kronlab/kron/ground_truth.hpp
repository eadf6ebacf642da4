// kronlab/kron/ground_truth.hpp
//
// Ground-truth 4-cycle statistics for Kronecker products (§III-B).
//
// Two layers:
//
//  * Factor-level formulas (Defs. 8–9) evaluated with sparse linear algebra
//    on a single graph: vertex_squares_formula / edge_squares_formula.
//    These are the algebraic counterparts of the combinatorial counters in
//    graph/butterflies.hpp — the test suite checks all three against each
//    other.
//
//  * Product-level factored ground truth for C = M ⊗ B with loop-free B:
//    degrees, two-hop walks, vertex squares, edge squares, global squares —
//    each as a FactoredVector/FactoredMatrix built from factor-sized
//    objects, never materializing C.  The generic forms hold for any M
//    (plain A or A + I_A); the Thm 3 / Thm 4 closed forms are provided
//    separately so the paper's exact expressions are testable.
//
// NOTE on Thm 4: the published statement carries a sign typo — the C·1 and
// C·1∘C·1 expansion terms appear with flipped signs relative to Def. 8
// (check: A = B = P2 gives the 4-cycle C4, whose vertices each sit in one
// square; the published signs give 3).  We implement the corrected signs
// and record the discrepancy in EXPERIMENTS.md.

#pragma once

#include "kronlab/kron/factored.hpp"
#include "kronlab/kron/product.hpp"

namespace kronlab::kron {

// ---------------------------------------------------------------------------
// Factor-level statistics.

/// Everything the product formulas need from one factor M (which may carry
/// self loops), computed once: degrees d = M1, two-hop walks w² = M²1,
/// squared degrees d∘d, closed 4-walks diag(M⁴), and M³∘M.
struct FactorStats {
  grb::Vector<count_t> d;
  grb::Vector<count_t> w2;
  grb::Vector<count_t> d2;
  grb::Vector<count_t> diag4;
  grb::Csr<count_t> m3_had_m; ///< M³ ∘ M

  static FactorStats compute(const Adjacency& m);
};

/// Def. 8 via linear algebra: s = ½(diag(A⁴) − d∘d − w² + d).
/// Requires loop-free undirected A.
grb::Vector<count_t> vertex_squares_formula(const Adjacency& a);

/// Def. 9 via linear algebra: ◇ = A³∘A − (d1ᵗ + 1dᵗ)∘A + A.
/// Requires loop-free undirected A.  Result has exactly A's structure
/// (zero counts are stored explicitly).
grb::Csr<count_t> edge_squares_formula(const Adjacency& a);

// ---------------------------------------------------------------------------
// Product-level factored ground truth (any BipartiteKronecker).

/// d_C = d_M ⊗ d_B (1 term).
FactoredVector degrees(const BipartiteKronecker& kp);

/// w²_C = w²_M ⊗ w²_B (1 term).
FactoredVector two_hop_walks(const BipartiteKronecker& kp);

/// s_C — vertex 4-cycle participation (generic factored form; 4 terms,
/// divisor 2).  Specializes to Thm 3 when M = A and Thm 4 when M = A + I_A.
FactoredVector vertex_squares(const BipartiteKronecker& kp);

/// ◇_C — edge 4-cycle participation (generic factored form; 4 terms).
FactoredMatrix edge_squares(const BipartiteKronecker& kp);

/// Global number of 4-cycles: Σ_p s_C(p) / 4, evaluated in factor space.
count_t global_squares(const BipartiteKronecker& kp);

// ---------------------------------------------------------------------------
// Closed forms as printed in the paper (for tests & benches).

/// Thm 3 statement: s_C for C = A ⊗ B in terms of (s, d, w²) of the
/// loop-free factors themselves.
FactoredVector vertex_squares_thm3(const Adjacency& a, const Adjacency& b);

/// Thm 4 (sign-corrected, see header note): s_C for C = (A + I_A) ⊗ B in
/// terms of loop-free bipartite A's own statistics.
FactoredVector vertex_squares_thm4(const Adjacency& a, const Adjacency& b);

/// Thm 4 point-wise form (sign-corrected): s_p from scalar factor stats of
/// i ∈ V_A and k ∈ V_B.
count_t vertex_squares_pointwise_thm4(count_t s_i, count_t d_i,
                                      count_t w2_i, count_t s_k,
                                      count_t d_k, count_t w2_k);

/// Thm 5 point-wise form: ◇_pq for product edge (p,q) from the factor-edge
/// statistics of (i,j) ∈ E_A and (k,l) ∈ E_B (loop-free A).  Uses the
/// pre-expansion identity ◇_pq = 1 + (◇_ij+d_i+d_j−1)(◇_kl+d_k+d_l−1)
/// − d_i·d_k − d_j·d_l, which is exact (the printed 19-term expansion drops
/// a constant).
count_t edge_squares_pointwise_thm5(count_t sq_ij, count_t d_i, count_t d_j,
                                    count_t sq_kl, count_t d_k,
                                    count_t d_l);

// ---------------------------------------------------------------------------
// Self-verification.

/// Outcome of cross-checking the factored ground truth of one product
/// against the direct counters (the wedge engine, graph/wedges.hpp) on the
/// materialized C.  This is the paper's mutual-validation loop packaged as
/// one call: the formulas validate the counters and vice versa.
struct GroundTruthCheck {
  bool vertex_ok = false;  ///< s_C (Def. 8) matches per vertex
  bool edge_ok = false;    ///< ◇_C (Def. 9) matches per stored edge
  bool global_ok = false;  ///< #C4 matches
  count_t global_factored = 0;
  count_t global_direct = 0;
  index_t vertices_checked = 0;
  count_t edges_checked = 0;

  [[nodiscard]] bool ok() const { return vertex_ok && edge_ok && global_ok; }
};

/// Materialize C = M ⊗ B and verify every factored 4-cycle statistic
/// against direct counting.  O(|E_C| · d̄) — validation sizes only.
GroundTruthCheck verify_ground_truth(const BipartiteKronecker& kp);

} // namespace kronlab::kron
