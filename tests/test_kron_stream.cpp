// Tests for the streaming edge generator and the on-the-fly ground-truth
// stream.

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "kronlab/gen/canonical.hpp"
#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/graph/butterflies.hpp"
#include "kronlab/kron/stream.hpp"

namespace kronlab::kron {
namespace {

BipartiteKronecker sample_product() {
  return BipartiteKronecker::assumption_i(gen::triangle_with_tail(1),
                                          gen::complete_bipartite(2, 2));
}

TEST(EdgeStream, EntriesMatchMaterializedStructure) {
  const auto kp = sample_product();
  const auto c = kp.materialize();
  EdgeStream es(kp);
  std::set<std::pair<index_t, index_t>> streamed;
  es.for_each_entry([&](index_t p, index_t q) {
    EXPECT_TRUE(streamed.emplace(p, q).second) << "duplicate entry";
  });
  EXPECT_EQ(static_cast<offset_t>(streamed.size()), c.nnz());
  for (const auto& [p, q] : streamed) EXPECT_TRUE(c.has(p, q));
}

TEST(EdgeStream, EntriesAreRowMajorSorted) {
  const auto kp = sample_product();
  EdgeStream es(kp);
  index_t last_p = -1, last_q = -1;
  es.for_each_entry([&](index_t p, index_t q) {
    EXPECT_TRUE(p > last_p || (p == last_p && q > last_q));
    last_p = p;
    last_q = q;
  });
}

TEST(EdgeStream, UndirectedEdgeVisitSeesEachOnce) {
  const auto kp = sample_product();
  EdgeStream es(kp);
  count_t n = 0;
  es.for_each_edge([&](index_t p, index_t q) {
    EXPECT_LT(p, q);
    ++n;
  });
  EXPECT_EQ(n, kp.num_edges());
}

TEST(EdgeStream, CountMatchesFactorArithmetic) {
  const auto kp = sample_product();
  EXPECT_EQ(EdgeStream(kp).count_entries(),
            kp.left().nnz() * kp.right().nnz());
}

TEST(EdgeStream, WriteEdgeListIsOneBasedAndComplete) {
  const auto kp = BipartiteKronecker::assumption_ii(gen::path_graph(2),
                                                    gen::path_graph(2));
  std::ostringstream out;
  EdgeStream(kp).write_edge_list(out);
  std::istringstream in(out.str());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header[0], '%');
  count_t edges = 0;
  index_t p, q;
  while (in >> p >> q) {
    EXPECT_GE(p, 1);
    EXPECT_LE(q, kp.num_vertices());
    EXPECT_LT(p, q);
    ++edges;
  }
  EXPECT_EQ(edges, kp.num_edges());
}

TEST(GroundTruthStream, SquaresMatchDirectCountingAssumptionI) {
  const auto kp = sample_product();
  const auto c = kp.materialize();
  const auto direct = graph::edge_butterflies(c);
  GroundTruthStream gts(kp);
  count_t entries = 0;
  gts.for_each_entry([&](index_t p, index_t q, count_t sq) {
    EXPECT_EQ(sq, direct.at(p, q)) << "edge (" << p << "," << q << ")";
    ++entries;
  });
  EXPECT_EQ(entries, c.nnz());
}

TEST(GroundTruthStream, SquaresMatchDirectCountingAssumptionII) {
  Rng rng(21);
  const auto kp = BipartiteKronecker::assumption_ii(
      gen::connected_random_bipartite(3, 4, 9, rng),
      gen::connected_random_bipartite(4, 3, 10, rng));
  const auto c = kp.materialize();
  const auto direct = graph::edge_butterflies(c);
  GroundTruthStream gts(kp);
  gts.for_each_entry([&](index_t p, index_t q, count_t sq) {
    ASSERT_EQ(sq, direct.at(p, q)) << "edge (" << p << "," << q << ")";
  });
}

TEST(GroundTruthStream, GlobalAggregationMatches) {
  // Σ over directed entries of ◇ = 8 · #squares.
  const auto kp = sample_product();
  GroundTruthStream gts(kp);
  count_t total = 0;
  gts.for_each_entry([&](index_t, index_t, count_t sq) { total += sq; });
  EXPECT_EQ(total / 8, graph::global_butterflies(kp.materialize()));
}

} // namespace
} // namespace kronlab::kron
