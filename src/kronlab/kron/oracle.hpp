// kronlab/kron/oracle.hpp
//
// GroundTruthOracle — the random-access validation oracle for a Kronecker
// product: O(1)-per-query exact statistics (degree, two-hop walks, vertex
// and edge 4-cycle counts, local closure, edge clustering) plus uniform
// vertex/edge sampling, all from factor-sized state.
//
// This is the object a validation harness holds while the system under
// test processes the streamed graph: spot-check any vertex or edge the SUT
// reports, or draw uniform random probes, without materializing C.

#pragma once

#include <map>
#include <optional>

#include "kronlab/common/random.hpp"
#include "kronlab/kron/factored.hpp"
#include "kronlab/kron/ground_truth.hpp"
#include "kronlab/kron/product.hpp"

namespace kronlab::kron {

/// Exact statistics of one product vertex.
struct VertexRecord {
  index_t p = 0;
  count_t degree = 0;
  count_t two_hop = 0; ///< w²(p)
  count_t squares = 0; ///< 4-cycle participation s_p
  double closure = 0;  ///< local closure (2s_p / interior 3-paths at p)
};

/// Exact statistics of one product edge.
struct EdgeRecord {
  index_t p = 0, q = 0;
  count_t degree_p = 0, degree_q = 0;
  count_t squares = 0; ///< ◇_pq
  double gamma = 0;    ///< Def. 10 edge clustering, 0 when degenerate
};

class GroundTruthOracle {
public:
  explicit GroundTruthOracle(const BipartiteKronecker& kp);

  [[nodiscard]] index_t num_vertices() const { return kp_->num_vertices(); }
  [[nodiscard]] count_t num_edges() const { return kp_->num_edges(); }

  /// O(#terms) exact vertex record.
  [[nodiscard]] VertexRecord vertex(index_t p) const;

  /// Exact edge record, or nullopt when (p, q) is not an edge of the
  /// product (including out-of-range indices).  This is the probe form a
  /// query server uses: a bad probe is an answer, not an exception.
  [[nodiscard]] std::optional<EdgeRecord> try_edge(index_t p,
                                                   index_t q) const;

  /// Membership alone: try_edge(p, q).has_value(), from the range check
  /// and the two factor lookups, without building the record.
  [[nodiscard]] bool has_edge(index_t p, index_t q) const;

  /// Exact edge record; throws invalid_argument if (p,q) is not an edge.
  [[nodiscard]] EdgeRecord edge(index_t p, index_t q) const;

  /// Uniform random vertex probe.
  [[nodiscard]] VertexRecord sample_vertex(Rng& rng) const;

  /// Uniform random edge probe (uniform over undirected edges).
  [[nodiscard]] EdgeRecord sample_edge(Rng& rng) const;

  /// Exact degree histogram of C from the factor histograms:
  /// hist_C[d] = Σ_{dm·db = d} hist_M[dm] · hist_B[db].
  [[nodiscard]] std::map<count_t, index_t> degree_histogram() const;

  /// Materialized local-closure vector (validation only; O(|V_C|)).
  [[nodiscard]] grb::Vector<double> local_closure() const;

private:
  const BipartiteKronecker* kp_;
  FactorStats stats_m_;
  FactorStats stats_b_;
  FactoredVector squares_;
  /// Row index of each stored factor entry (for uniform edge sampling).
  std::vector<index_t> entry_row_m_;
  std::vector<index_t> entry_row_b_;

  [[nodiscard]] count_t edge_squares_at(index_t i, index_t j, index_t k,
                                        index_t l) const;
};

} // namespace kronlab::kron
