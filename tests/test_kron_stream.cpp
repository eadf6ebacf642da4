// Tests for the streaming edge generator and the on-the-fly ground-truth
// stream.

#include <gtest/gtest.h>

#include <sstream>
#include <utility>
#include <vector>

#include "kronlab/gen/canonical.hpp"
#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/graph/butterflies.hpp"
#include "kronlab/kron/stream.hpp"
#include "support/kron_reference.hpp"

namespace kronlab::kron {
namespace {

BipartiteKronecker sample_product() {
  return BipartiteKronecker::assumption_i(gen::triangle_with_tail(1),
                                          gen::complete_bipartite(2, 2));
}

/// Every entry EdgeStream emits, in order.
std::vector<std::pair<index_t, index_t>> streamed_entries(
    const BipartiteKronecker& kp) {
  std::vector<std::pair<index_t, index_t>> out;
  EdgeStream(kp).for_each_entry(
      [&](index_t p, index_t q) { out.emplace_back(p, q); });
  return out;
}

/// The entries of Def. 4's product, row-major, built without the walk.
std::vector<std::pair<index_t, index_t>> reference_entries(
    const BipartiteKronecker& kp) {
  const auto c = test_support::kron_reference(kp.left(), kp.right());
  return test_support::entries_of_rows(c, 0, c.nrows());
}

TEST(EdgeStream, EntriesMatchMaterializedStructure) {
  const auto kp = sample_product();
  EXPECT_EQ(streamed_entries(kp), reference_entries(kp));
}

TEST(EdgeStream, EmptyFactorRowsMatchReference) {
  const auto kp = test_support::product_with_isolated_vertices();
  const auto expect = reference_entries(kp);
  ASSERT_FALSE(expect.empty());
  EXPECT_EQ(streamed_entries(kp), expect);
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
  count_t n = 0;
  EdgeStream(kp).for_each_entry([&](index_t, index_t) { ++n; });
  EXPECT_EQ(n, kp.left().nnz() * kp.right().nnz());
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

/// Direct edge 4-cycle counts of Def. 4's product, built without the walk.
grb::Csr<count_t> direct_edge_squares(const BipartiteKronecker& kp) {
  return graph::edge_butterflies(
      test_support::kron_reference(kp.left(), kp.right()));
}

TEST(GroundTruthStream, SquaresMatchDirectCountingAssumptionI) {
  const auto kp = sample_product();
  const auto direct = direct_edge_squares(kp);
  GroundTruthStream gts(kp);
  count_t entries = 0;
  gts.for_each_entry([&](index_t p, index_t q, count_t sq) {
    EXPECT_EQ(sq, direct.at(p, q)) << "edge (" << p << "," << q << ")";
    ++entries;
  });
  EXPECT_EQ(entries, direct.nnz());
}

TEST(GroundTruthStream, SquaresMatchDirectCountingAssumptionII) {
  Rng rng(21);
  const auto kp = BipartiteKronecker::assumption_ii(
      gen::connected_random_bipartite(3, 4, 9, rng),
      gen::connected_random_bipartite(4, 3, 10, rng));
  const auto direct = direct_edge_squares(kp);
  GroundTruthStream gts(kp);
  gts.for_each_entry([&](index_t p, index_t q, count_t sq) {
    ASSERT_EQ(sq, direct.at(p, q)) << "edge (" << p << "," << q << ")";
  });
}

TEST(GroundTruthStream, EmptyFactorRowsMatchDirectCounting) {
  const auto kp = test_support::product_with_isolated_vertices();
  const auto direct = direct_edge_squares(kp);
  std::vector<std::pair<index_t, index_t>> seen;
  count_t squares = 0;
  GroundTruthStream(kp).for_each_entry(
      [&](index_t p, index_t q, count_t sq) {
        EXPECT_EQ(sq, direct.at(p, q)) << "edge (" << p << "," << q << ")";
        seen.emplace_back(p, q);
        squares += sq;
      });
  EXPECT_EQ(seen, reference_entries(kp));
  EXPECT_GT(squares, 0);
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
