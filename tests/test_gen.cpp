// Tests for the factor generators: structural guarantees, determinism,
// and parameter validation.

#include <gtest/gtest.h>

#include "kronlab/gen/bter.hpp"
#include "kronlab/gen/canonical.hpp"
#include "kronlab/gen/konect.hpp"
#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/gen/rmat.hpp"
#include "kronlab/gen/spec.hpp"
#include "kronlab/gen/unicode_like.hpp"
#include "kronlab/graph/bipartite.hpp"
#include "kronlab/graph/butterflies.hpp"
#include "kronlab/graph/community.hpp"
#include "kronlab/graph/stats.hpp"
#include "kronlab/graph/traversal.hpp"
#include "kronlab/graph/triangles.hpp"
#include "kronlab/grb/ops.hpp"
#include "kronlab/kron/product.hpp"

#include <sstream>

namespace kronlab::gen {
namespace {

TEST(Canonical, PathCycleStarShapes) {
  EXPECT_EQ(graph::num_edges(path_graph(5)), 4);
  EXPECT_EQ(graph::num_edges(cycle_graph(5)), 5);
  EXPECT_EQ(graph::num_edges(star_graph(7)), 7);
  EXPECT_EQ(graph::num_edges(complete_graph(5)), 10);
  EXPECT_EQ(graph::num_edges(complete_bipartite(3, 4)), 12);
  EXPECT_EQ(graph::num_edges(crown_graph(4)), 12);
  EXPECT_EQ(graph::num_edges(hypercube(4)), 32);
  EXPECT_EQ(graph::num_edges(grid_graph(3, 4)), 17);
  EXPECT_EQ(graph::num_edges(double_star(2, 3)), 6);
  EXPECT_EQ(graph::num_edges(triangle_with_tail(2)), 5);
}

TEST(Canonical, BipartitenessMatrix) {
  EXPECT_TRUE(graph::is_bipartite(path_graph(6)));
  EXPECT_TRUE(graph::is_bipartite(cycle_graph(6)));
  EXPECT_FALSE(graph::is_bipartite(cycle_graph(7)));
  EXPECT_TRUE(graph::is_bipartite(star_graph(4)));
  EXPECT_FALSE(graph::is_bipartite(complete_graph(3)));
  EXPECT_TRUE(graph::is_bipartite(complete_bipartite(2, 5)));
  EXPECT_TRUE(graph::is_bipartite(crown_graph(3)));
  EXPECT_TRUE(graph::is_bipartite(hypercube(5)));
  EXPECT_TRUE(graph::is_bipartite(grid_graph(4, 4)));
  EXPECT_FALSE(graph::is_bipartite(triangle_with_tail(4)));
}

TEST(Canonical, ParameterValidation) {
  EXPECT_THROW(path_graph(0), invalid_argument);
  EXPECT_THROW(cycle_graph(2), invalid_argument);
  EXPECT_THROW(star_graph(0), invalid_argument);
  EXPECT_THROW(crown_graph(2), invalid_argument);
  EXPECT_THROW(hypercube(-1), invalid_argument);
  EXPECT_THROW(grid_graph(0, 3), invalid_argument);
}

TEST(Canonical, HypercubeSpecChecksItsDimensionBeforeNarrowing) {
  // 2^32 + 4 and −(2^32 − 4) both narrow to 4 in an int.
  EXPECT_THROW(parse_graph_spec("hypercube:4294967300"), invalid_argument);
  EXPECT_THROW(parse_graph_spec("hypercube:-4294967292"), invalid_argument);
  EXPECT_THROW(parse_graph_spec("hypercube:20"), invalid_argument);
  EXPECT_EQ(parse_graph_spec("hypercube:4"), hypercube(4));
}

TEST(Canonical, DisjointUnionBlocks) {
  const auto g = disjoint_union(cycle_graph(3), path_graph(2));
  EXPECT_EQ(g.nrows(), 5);
  EXPECT_EQ(graph::num_edges(g), 4);
  EXPECT_FALSE(graph::is_connected(g));
  EXPECT_FALSE(g.has(2, 3)); // no cross-block edges
}

TEST(RandomBipartite, ExactEdgeCountAndBipartite) {
  Rng rng(1);
  const auto g = random_bipartite(10, 15, 60, rng);
  EXPECT_EQ(graph::num_edges(g), 60);
  EXPECT_TRUE(graph::is_bipartite(g));
  EXPECT_EQ(graph::global_triangles(g), 0);
}

TEST(RandomBipartite, Determinism) {
  Rng r1(7), r2(7);
  EXPECT_EQ(random_bipartite(6, 6, 18, r1), random_bipartite(6, 6, 18, r2));
}

TEST(RandomBipartite, RejectsOverfullRequests) {
  Rng rng(1);
  EXPECT_THROW(random_bipartite(3, 3, 10, rng), invalid_argument);
}

/// The numbering contract of the spanning-tree generators: row degrees do
/// not decrease with id over [lo, hi) (hubs last).
bool degrees_ascend(const Adjacency& g, index_t lo, index_t hi) {
  for (index_t v = lo + 1; v < hi; ++v) {
    if (g.row_degree(v) < g.row_degree(v - 1)) return false;
  }
  return true;
}

TEST(ConnectedRandomBipartite, IsConnectedAndSized) {
  // Also numbered hubs last within each side, U = [0, 7), W = [7, 16).
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed);
    const auto g = connected_random_bipartite(7, 9, 30, rng);
    EXPECT_TRUE(graph::is_connected(g)) << "seed " << seed;
    EXPECT_TRUE(graph::is_bipartite(g));
    EXPECT_EQ(graph::num_edges(g), 30);
    EXPECT_TRUE(degrees_ascend(g, 0, 7)) << "seed " << seed;
    EXPECT_TRUE(degrees_ascend(g, 7, 16)) << "seed " << seed;
    for (index_t v = 0; v < 16; ++v) {
      for (const index_t x : g.row_cols(v)) {
        EXPECT_NE(v < 7, x < 7) << "seed " << seed << ": " << v << "-" << x;
      }
    }
    Rng again(seed);
    EXPECT_EQ(connected_random_bipartite(7, 9, 30, again), g);
  }
}

TEST(ConnectedRandomBipartite, RejectsTooFewEdges) {
  Rng rng(1);
  EXPECT_THROW(connected_random_bipartite(5, 5, 8, rng), invalid_argument);
}

TEST(PreferentialBipartite, HeavyTailSkew) {
  Rng rng(3);
  const auto g = preferential_bipartite(60, 60, 350, rng);
  EXPECT_EQ(graph::num_edges(g), 350);
  EXPECT_TRUE(graph::is_bipartite(g));
  const auto sum = graph::degree_summary(g);
  // Preferential attachment must produce hubs well above the mean.
  EXPECT_GT(static_cast<double>(sum.max_degree), 3.0 * sum.mean_degree);
}

TEST(PreferentialBipartite, NearCompleteFallbackTerminates) {
  Rng rng(3);
  const auto g = preferential_bipartite(4, 4, 16, rng); // complete
  EXPECT_EQ(graph::num_edges(g), 16);
}

TEST(ChungLu, ExpectedDegreesTrackWeights) {
  Rng rng(12);
  std::vector<double> wu(40, 2.0), ww(40, 2.0);
  wu[0] = 30.0; // one heavy left vertex
  const auto g = chung_lu_bipartite(wu, ww, rng);
  EXPECT_TRUE(graph::is_bipartite(g));
  const auto d = graph::degrees(g);
  EXPECT_GT(d[0], 10); // ~28 expected
}

TEST(ChungLu, RejectsBadWeights) {
  Rng rng(1);
  EXPECT_THROW(chung_lu_bipartite({}, {1.0}, rng), invalid_argument);
  EXPECT_THROW(chung_lu_bipartite({-1.0}, {1.0}, rng), invalid_argument);
  EXPECT_THROW(chung_lu_bipartite({0.0}, {0.0}, rng), invalid_argument);
}

TEST(PlantedCommunity, DenseBlockIsDense) {
  PlantedCommunity pc;
  pc.nu = 30;
  pc.nw = 30;
  pc.r = 10;
  pc.t = 10;
  pc.p_in = 0.9;
  pc.p_out = 0.01;
  Rng rng(8);
  const auto g = planted_community_bipartite(pc, rng);
  const auto part = graph::two_color(g).value();
  graph::BipartiteSubset s;
  for (index_t i = 0; i < pc.r; ++i) s.r.push_back(i);
  for (index_t k = 0; k < pc.t; ++k) s.t.push_back(pc.nu + k);
  const auto st = graph::community_stats(g, part, s);
  EXPECT_GT(st.rho_in, 0.7);
  EXPECT_LT(st.rho_out, 0.1);
}

TEST(RandomNonbipartite, ConnectedWithOddCycle) {
  // Also numbered hubs last over all ids.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed);
    const auto g = random_nonbipartite_connected(9, 16, rng);
    EXPECT_TRUE(graph::is_connected(g)) << "seed " << seed;
    EXPECT_FALSE(graph::is_bipartite(g)) << "seed " << seed;
    EXPECT_TRUE(grb::has_no_self_loops(g));
    EXPECT_TRUE(degrees_ascend(g, 0, 9)) << "seed " << seed;
    EXPECT_LT(g.row_degree(0), g.row_degree(8)) << "seed " << seed;
    Rng again(seed);
    EXPECT_EQ(random_nonbipartite_connected(9, 16, again), g);
  }
}

/// `g` with each vertex v renamed `pi[v]`.
Adjacency renumbered(const Adjacency& g, const std::vector<index_t>& pi) {
  std::vector<std::pair<index_t, index_t>> edges;
  for (index_t v = 0; v < g.nrows(); ++v) {
    for (const index_t x : g.row_cols(v)) {
      if (v < x) edges.emplace_back(pi[static_cast<std::size_t>(v)],
                                    pi[static_cast<std::size_t>(x)]);
    }
  }
  return graph::from_undirected_edges(g.nrows(), edges);
}

/// The wedges the largest-id engine (graph/wedges.hpp) walks:
/// Σ_i Σ_{j ∈ N(i), j < i} |N(j) ∩ [0, i)|.
count_t largest_id_wedges(const Adjacency& g) {
  count_t wedges = 0;
  for (index_t i = 0; i < g.nrows(); ++i) {
    for (const index_t j : g.row_cols(i)) {
      if (j >= i) break;
      for (const index_t k : g.row_cols(j)) {
        if (k >= i) break;
        ++wedges;
      }
    }
  }
  return wedges;
}

TEST(HubsLastNumbering, ProductWalksFewerWedgesThanHubsFirstAndIsIsomorphic) {
  // The same product with each factor's numbering reversed (hubs first,
  // within each side of B) walks more wedges and has the same counts
  // through γ(π_M(i), π_B(k)).
  constexpr index_t nm = 40, nu = 30, nw = 30, nb = nu + nw;
  std::vector<index_t> pi_m(nm), pi_b(nb);
  for (index_t i = 0; i < nm; ++i) {
    pi_m[static_cast<std::size_t>(i)] = nm - 1 - i;
  }
  for (index_t k = 0; k < nb; ++k) {
    pi_b[static_cast<std::size_t>(k)] = k < nu ? nu - 1 - k : nu + nb - 1 - k;
  }
  for (const std::uint64_t seed : {1u, 7u, 11u}) {
    Rng rng(seed);
    auto m = random_nonbipartite_connected(nm, 100, rng);
    auto b = connected_random_bipartite(nu, nw, 120, rng);
    auto m_rev = renumbered(m, pi_m);
    auto b_rev = renumbered(b, pi_b);
    const auto c =
        kron::BipartiteKronecker::raw(std::move(m), std::move(b)).materialize();
    const auto c_rev = kron::BipartiteKronecker::raw(std::move(m_rev),
                                                     std::move(b_rev))
                           .materialize();
    EXPECT_LT(largest_id_wedges(c), largest_id_wedges(c_rev))
        << "seed " << seed;

    const auto gamma = [&](index_t p) {
      return pi_m[static_cast<std::size_t>(p / nb)] * nb +
             pi_b[static_cast<std::size_t>(p % nb)];
    };
    EXPECT_EQ(graph::global_butterflies(c), graph::global_butterflies(c_rev));
    const auto s = graph::vertex_butterflies(c);
    const auto s_rev = graph::vertex_butterflies(c_rev);
    const auto e = graph::edge_butterflies(c);
    const auto e_rev = graph::edge_butterflies(c_rev);
    for (index_t p = 0; p < c.nrows(); ++p) {
      ASSERT_EQ(s[p], s_rev[gamma(p)]) << "seed " << seed << " vertex " << p;
      const auto cols = e.row_cols(p);
      const auto vals = e.row_vals(p);
      for (std::size_t t = 0; t < cols.size(); ++t) {
        ASSERT_EQ(vals[t], e_rev.at(gamma(p), gamma(cols[t])))
            << "seed " << seed << " edge " << p << "-" << cols[t];
      }
    }
  }
}

TEST(Rmat, GeneratesWithinGrid) {
  RmatParams p;
  p.scale_u = 6;
  p.scale_w = 7;
  p.edges = 500;
  Rng rng(5);
  const auto g = rmat_bipartite(p, rng);
  EXPECT_EQ(g.nrows(), 64 + 128);
  EXPECT_TRUE(graph::is_bipartite(g));
  EXPECT_LE(graph::num_edges(g), 500); // dedup may drop duplicates
  EXPECT_GT(graph::num_edges(g), 300);
}

TEST(Rmat, SkewedQuadrantsProduceSkewedDegrees) {
  RmatParams p;
  p.scale_u = 7;
  p.scale_w = 7;
  p.edges = 1000;
  Rng rng(6);
  const auto g = rmat_bipartite(p, rng);
  EXPECT_GT(graph::degree_summary(g).gini, 0.3);
}

TEST(Rmat, RejectsBadProbabilities) {
  RmatParams p;
  p.a = 0.5;
  p.b = 0.5;
  p.c = 0.5;
  p.d = 0.5;
  Rng rng(1);
  EXPECT_THROW(rmat_bipartite(p, rng), invalid_argument);
}

TEST(Bter, DiagonalBlocksAreDenser) {
  BterParams p;
  p.blocks = 3;
  p.block_u = 10;
  p.block_w = 10;
  p.p_in = 0.5;
  p.p_out = 0.01;
  Rng rng(2);
  const auto g = bter_bipartite(p, rng);
  EXPECT_TRUE(graph::is_bipartite(g));
  const index_t nu = 30;
  count_t in_block = 0, off_block = 0;
  for (index_t u = 0; u < nu; ++u) {
    for (const index_t c : g.row_cols(u)) {
      const index_t w = c - nu;
      if (u / 10 == w / 10) {
        ++in_block;
      } else {
        ++off_block;
      }
    }
  }
  EXPECT_GT(in_block, 5 * off_block);
}

TEST(UnicodeLike, MatchesKonectShape) {
  const auto g = unicode_like();
  EXPECT_EQ(g.nrows(), 254 + 614);
  EXPECT_EQ(graph::num_edges(g), 1256);
  EXPECT_TRUE(graph::is_bipartite(g));
  // Heavy-tail shape comparable to the real dataset.
  const auto sum = graph::degree_summary(g);
  EXPECT_GT(sum.max_degree, 30);
  EXPECT_GT(sum.gini, 0.4);
  // Like the real unicode network, the stand-in is disconnected.
  EXPECT_FALSE(graph::is_connected(g));
}

TEST(UnicodeLike, DeterministicCanonicalInstance) {
  EXPECT_EQ(unicode_like(), unicode_like());
}

TEST(Konect, EdgeListToAdjacency) {
  grb::BipartiteEdgeList el;
  el.n_left = 3;
  el.n_right = 2;
  el.edges = {{0, 0}, {2, 1}, {0, 0}}; // duplicate collapses
  const auto a = bipartite_adjacency_from_edge_list(el);
  EXPECT_EQ(a.nrows(), 5);
  EXPECT_TRUE(graph::is_bipartite(a));
  EXPECT_EQ(graph::num_edges(a), 2);
  EXPECT_TRUE(a.has(0, 3));
  EXPECT_TRUE(a.has(2, 4));
}

} // namespace
} // namespace kronlab::gen
