// kronlab/gen/random_bipartite.hpp
//
// Randomized factor families used by the property-test suite and the
// scaling-law benches: uniform bipartite, connected bipartite, heavy-tail
// (preferential-attachment) bipartite, Chung–Lu bipartite, planted-community
// bipartite, and connected non-bipartite graphs (for Assumption 1(i)).
//
// All generators are deterministic functions of their Rng.
//
// Numbering contract of the two spanning-tree generators
// (connected_random_bipartite, random_nonbipartite_connected): vertex ids
// ascend with degree, ties in construction order — over [0, n) for the
// non-bipartite graph, within each side for the bipartite one (U stays
// [0, nu), W stays [nu, nu+nw)).  The hubs get the largest ids, so the
// largest-id wedge engine (graph/wedges.hpp) walks fewer wedges on them
// and on every product γ(i,k) = i·n_B + k built from them.  The other
// generators keep their construction ids: theirs carry no id–degree bias,
// or carry meaning (the planted block, the Chung–Lu weight order).

#pragma once

#include "kronlab/common/random.hpp"
#include "kronlab/graph/graph.hpp"

namespace kronlab::gen {

using graph::Adjacency;

/// Uniform bipartite G(nu, nw, m): exactly m distinct edges chosen
/// uniformly from the nu×nw grid.  Not necessarily connected.
Adjacency random_bipartite(index_t nu, index_t nw, count_t m, Rng& rng);

/// Connected bipartite graph: a random alternating spanning tree over all
/// nu + nw vertices plus (m − (nu+nw−1)) uniform extra edges, numbered
/// hubs last within each side (see above).
/// Requires m ≥ nu + nw − 1 and m ≤ nu·nw.
Adjacency connected_random_bipartite(index_t nu, index_t nw, count_t m,
                                     Rng& rng);

/// Heavy-tail bipartite graph by preferential attachment: each of the m
/// edges picks endpoints with probability proportional to (degree + 1).
/// Produces the scale-free skew the paper wants from factors.
Adjacency preferential_bipartite(index_t nu, index_t nw, count_t m,
                                 Rng& rng);

/// Bipartite Chung–Lu: edge (u,w) present independently with probability
/// min(1, wu[u]·ww[w] / Σwu).  Expected degrees follow the weight vectors.
Adjacency chung_lu_bipartite(const std::vector<double>& wu,
                             const std::vector<double>& ww, Rng& rng);

/// Parameters of a planted bipartite community.
struct PlantedCommunity {
  index_t nu = 0;        ///< total left vertices
  index_t nw = 0;        ///< total right vertices
  index_t r = 0;         ///< community left size (vertices 0..r-1)
  index_t t = 0;         ///< community right size (vertices nu..nu+t-1)
  double p_in = 0.5;     ///< edge probability inside the R×T block
  double p_out = 0.02;   ///< edge probability elsewhere
};

/// Bipartite graph with one dense planted block (community benches for
/// Thm 7 / Cors 1–2).
Adjacency planted_community_bipartite(const PlantedCommunity& pc, Rng& rng);

/// Connected non-bipartite graph: random connected graph on n vertices with
/// m edges, with one triangle forced so an odd cycle always exists,
/// numbered hubs last (see above).
/// Requires m ≥ n + 2 (spanning tree + full triangle) and n ≥ 3.
Adjacency random_nonbipartite_connected(index_t n, count_t m, Rng& rng);

} // namespace kronlab::gen
