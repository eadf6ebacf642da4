// Degenerate and minimal inputs across the whole public API: empty
// graphs, single vertices, single edges, edgeless factors.  Everything
// should either work with the mathematically sensible answer or reject
// with a typed error — never crash or return garbage.

#include <gtest/gtest.h>

#include <sstream>

#include "kronlab/kronlab.hpp"

namespace kronlab {
namespace {

graph::Adjacency empty_graph(index_t n) {
  return graph::from_undirected_edges(n, {});
}

TEST(EdgeCases, EmptyGraphStatistics) {
  const auto e = empty_graph(5);
  EXPECT_EQ(graph::num_edges(e), 0);
  EXPECT_EQ(graph::max_degree(e), 0);
  EXPECT_EQ(graph::global_butterflies(e), 0);
  EXPECT_EQ(graph::global_triangles(e), 0);
  EXPECT_EQ(grb::reduce(graph::degrees(e)), 0);
  EXPECT_TRUE(graph::is_bipartite(e));
  EXPECT_FALSE(graph::is_connected(e)); // 5 isolated components
  EXPECT_EQ(graph::connected_components(e).count, 5);
}

TEST(EdgeCases, ZeroVertexGraph) {
  const auto z = empty_graph(0);
  EXPECT_EQ(graph::num_vertices(z), 0);
  EXPECT_TRUE(graph::is_connected(z));
  EXPECT_EQ(graph::global_butterflies(z), 0);
  EXPECT_EQ(graph::degree_histogram(z).size(), 0u);
}

TEST(EdgeCases, SingleEdgeFactorProducts) {
  // P2 ⊗ P2 under raw: two disjoint edges.
  const auto p2 = gen::path_graph(2);
  const auto kp = kron::BipartiteKronecker::raw(p2, p2);
  EXPECT_EQ(kp.num_vertices(), 4);
  EXPECT_EQ(kp.num_edges(), 2);
  EXPECT_EQ(kron::global_squares(kp), 0);
  const auto c = kp.materialize();
  EXPECT_EQ(graph::connected_components(c).count, 2);
}

TEST(EdgeCases, EdgelessFactorGivesEdgelessProduct) {
  const auto kp =
      kron::BipartiteKronecker::raw(empty_graph(3), gen::path_graph(4));
  EXPECT_EQ(kp.num_edges(), 0);
  EXPECT_EQ(kron::global_squares(kp), 0);
  count_t streamed = 0;
  kron::EdgeStream(kp).for_each_entry([&](index_t, index_t) { ++streamed; });
  EXPECT_EQ(streamed, 0);
  const auto s = kron::vertex_squares(kp);
  EXPECT_EQ(s.reduce(), 0);
  // Oracle still answers vertex queries (degree 0 everywhere).
  const kron::GroundTruthOracle oracle(kp);
  for (index_t p = 0; p < kp.num_vertices(); ++p) {
    EXPECT_EQ(oracle.vertex(p).degree, 0);
    EXPECT_EQ(oracle.vertex(p).squares, 0);
  }
  Rng rng(1);
  EXPECT_THROW((void)oracle.sample_edge(rng), invalid_argument);
}

TEST(EdgeCases, SingleVertexFactor) {
  // 1-vertex loop-free factor annihilates all edges.
  const auto one = empty_graph(1);
  const auto kp = kron::BipartiteKronecker::raw(gen::complete_graph(3), one);
  EXPECT_EQ(kp.num_vertices(), 3);
  EXPECT_EQ(kp.num_edges(), 0);
  // With a self loop it is the identity of ⊗.
  const auto looped = grb::add_identity(one);
  const auto kp2 =
      kron::BipartiteKronecker::raw(looped, gen::cycle_graph(4));
  EXPECT_EQ(kp2.materialize(), gen::cycle_graph(4));
  EXPECT_EQ(kron::global_squares(kp2), 1);
}

TEST(EdgeCases, StreamOnMinimalProduct) {
  const auto kp = kron::BipartiteKronecker::raw(gen::path_graph(2),
                                                gen::path_graph(2));
  std::ostringstream out;
  kron::EdgeStream(kp).write_edge_list(out);
  EXPECT_FALSE(out.str().empty());
  kron::GroundTruthStream gts(kp);
  gts.for_each_entry([](index_t, index_t, count_t sq) {
    EXPECT_EQ(sq, 0); // disjoint edges carry no squares
  });
}

TEST(EdgeCases, WingAndTipOnEmpty) {
  const auto e = empty_graph(4);
  const auto w = graph::wing_decomposition(e);
  EXPECT_EQ(w.max_wing, 0);
  EXPECT_EQ(w.wing.nnz(), 0);
  const auto part = graph::two_color(e).value();
  const auto t = graph::tip_decomposition(e, part, 0);
  EXPECT_EQ(t.max_tip, 0);
}

TEST(EdgeCases, CommunityOnWholeGraph) {
  // S = V: m_out must be 0 and rho_out degenerate (0 by convention).
  const auto a = gen::complete_bipartite(2, 3);
  const auto part = graph::two_color(a).value();
  graph::BipartiteSubset s;
  s.r = {0, 1};
  s.t = {2, 3, 4};
  const auto st = graph::community_stats(a, part, s);
  EXPECT_EQ(st.m_in, 6);
  EXPECT_EQ(st.m_out, 0);
  EXPECT_DOUBLE_EQ(st.rho_out, 0.0);
}

TEST(EdgeCases, FactoredVectorWithNoTerms) {
  kron::FactoredVector fv(3, 4);
  EXPECT_EQ(fv.size(), 12);
  EXPECT_EQ(fv.at(7), 0);
  EXPECT_EQ(fv.reduce(), 0);
  EXPECT_EQ(grb::reduce(fv.materialize()), 0);
}

TEST(EdgeCases, ChainOfOneFactor) {
  const auto ck = kron::ChainKronecker::of({gen::cycle_graph(4)});
  EXPECT_EQ(ck.num_vertices(), 4);
  EXPECT_EQ(ck.global_squares(), 1);
  EXPECT_EQ(ck.materialize(), gen::cycle_graph(4));
}

TEST(EdgeCases, DistancesOnEdgelessProduct) {
  const auto kp =
      kron::BipartiteKronecker::raw(empty_graph(2), gen::path_graph(2));
  const auto pd_m = kron::ParityDistances::compute(kp.left());
  const auto pd_b = kron::ParityDistances::compute(kp.right());
  // Every vertex reaches only itself.
  for (index_t p = 0; p < kp.num_vertices(); ++p) {
    for (index_t q = 0; q < kp.num_vertices(); ++q) {
      const auto d = kron::product_distance(kp, pd_m, pd_b, p, q);
      if (p == q) {
        EXPECT_EQ(d, 0);
      } else {
        EXPECT_EQ(d, kron::dist_unreachable);
      }
    }
  }
}

TEST(EdgeCases, ApproxCountersOnEmpty) {
  Rng rng(1);
  const auto e = empty_graph(6);
  EXPECT_DOUBLE_EQ(graph::approx_butterflies_vertex(e, 10, rng).estimate,
                   0.0);
  EXPECT_DOUBLE_EQ(graph::approx_butterflies_edge(e, 10, rng).estimate,
                   0.0);
  EXPECT_DOUBLE_EQ(graph::approx_butterflies_wedge(e, 10, rng).estimate,
                   0.0);
}

TEST(EdgeCases, PartitionOfEdgelessProduct) {
  const auto kp =
      kron::BipartiteKronecker::raw(empty_graph(3), gen::path_graph(3));
  const kron::PartitionedStream ps(kp, 2);
  EXPECT_EQ(ps.entries_of(0) + ps.entries_of(1), 0);
}

} // namespace
} // namespace kronlab
