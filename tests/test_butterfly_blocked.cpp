// Randomized cross-checks for the degree-ordered, cache-blocked counting
// kernels (graph/blocked.*): blocked vs retained reference kernels vs the
// factored ground truth (Thms 3–5), at every pool width the CI sanitizer
// jobs exercise.  The blocked kernels are the repo's default dispatch, so
// any relabeling bug (wrong mirror slot, cursor drift, rank collision) or
// scheduling bug (scratch leakage between chunks, dropped chunk) breaks
// bit-exact agreement here.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/gen/rmat.hpp"
#include "kronlab/graph/blocked.hpp"
#include "kronlab/graph/butterflies.hpp"
#include "kronlab/grb/ops.hpp"
#include "kronlab/kron/ground_truth.hpp"
#include "kronlab/kron/product.hpp"
#include "kronlab/parallel/thread_pool.hpp"

namespace kronlab {
namespace {

using graph::Adjacency;

Adjacency seeded_graph(int id) {
  Rng rng(7100 + static_cast<std::uint64_t>(id));
  switch (id % 6) {
    case 0: return gen::connected_random_bipartite(20, 24, 90, rng);
    case 1: return gen::preferential_bipartite(30, 36, 180, rng);
    case 2: return gen::random_bipartite(24, 24, 110, rng);
    case 3: return gen::random_nonbipartite_connected(40, 140, rng);
    case 4: {
      gen::RmatParams p;
      p.scale_u = 5;
      p.scale_w = 5;
      p.edges = 160;
      return gen::rmat_bipartite(p, rng);
    }
    default: return gen::preferential_bipartite(48, 40, 260, rng);
  }
}

// -------------------------------------------------------------------------
// Relabeling layer: DegreeOrder must be a degree-sorted permutation whose
// entry map really is the CSR mirror involution.

TEST(DegreeOrder, RanksSortByDegreeAndRoundTrip) {
  for (int id = 0; id < 6; ++id) {
    const auto a = seeded_graph(id);
    const graph::DegreeOrder ord(a);
    const auto& g = ord.relabeled;
    ASSERT_EQ(g.nrows(), a.nrows());
    ASSERT_EQ(g.nnz(), a.nnz());
    for (index_t c = 0; c + 1 < g.nrows(); ++c) {
      // Rank order is non-increasing degree.
      ASSERT_GE(g.row_cols(c).size(), g.row_cols(c + 1).size())
          << "graph " << id << " rank " << c;
    }
    for (index_t v = 0; v < a.nrows(); ++v) {
      ASSERT_EQ(ord.orig[ord.rank[v]], v) << "graph " << id;
      ASSERT_EQ(g.row_cols(ord.rank[v]).size(), a.row_cols(v).size())
          << "graph " << id;
    }
  }
}

TEST(DegreeOrder, EntryMapScattersRankEntriesToOriginalOffsets) {
  for (int id = 0; id < 6; ++id) {
    const auto a = seeded_graph(id);
    const graph::DegreeOrder ord(a, /*with_entry_map=*/true);
    const auto& g = ord.relabeled;
    ASSERT_EQ(ord.entry_map.size(), static_cast<std::size_t>(g.nnz()));

    // Original row of every original stored-entry offset.
    const auto& arp = a.row_ptr();
    std::vector<index_t> orig_row(static_cast<std::size_t>(a.nnz()));
    for (index_t u = 0; u < a.nrows(); ++u) {
      for (offset_t p = arp[static_cast<std::size_t>(u)];
           p < arp[static_cast<std::size_t>(u) + 1]; ++p) {
        orig_row[static_cast<std::size_t>(p)] = u;
      }
    }

    // entry_map must be a bijection: relabeled entry (r, c) ↦ the original
    // stored entry (orig[r], orig[c]).
    std::vector<char> seen(static_cast<std::size_t>(a.nnz()), 0);
    const auto& grp = g.row_ptr();
    for (index_t r = 0; r < g.nrows(); ++r) {
      for (offset_t p = grp[static_cast<std::size_t>(r)];
           p < grp[static_cast<std::size_t>(r) + 1]; ++p) {
        const auto q = static_cast<std::size_t>(
            ord.entry_map[static_cast<std::size_t>(p)]);
        ASSERT_FALSE(seen[q]) << "graph " << id << " entry " << p;
        seen[q] = 1;
        ASSERT_EQ(orig_row[q], ord.orig[static_cast<std::size_t>(r)])
            << "graph " << id << " entry " << p;
        ASSERT_EQ(a.col_idx()[q],
                  ord.orig[static_cast<std::size_t>(
                      g.col_idx()[static_cast<std::size_t>(p)])])
            << "graph " << id << " entry " << p;
      }
    }
  }
}

// -------------------------------------------------------------------------
// Parallel relabel: DegreeOrder builds rows independently on the pool; it
// must reproduce, array for array, the serial build it replaced (a
// comparison sort for the ranks plus one counting sweep that emits every
// relabeled row already sorted, with entry_map from a mirror-cursor pass).

struct SerialOrder {
  std::vector<index_t> rank, orig;
  std::vector<offset_t> row_ptr;
  std::vector<index_t> col_idx;
  std::vector<offset_t> entry_map;
};

SerialOrder serial_degree_order(const Adjacency& a, bool with_entry_map) {
  const index_t n = a.nrows();
  const auto un = static_cast<std::size_t>(n);
  SerialOrder o;
  o.orig.resize(un);
  std::iota(o.orig.begin(), o.orig.end(), index_t{0});
  std::sort(o.orig.begin(), o.orig.end(), [&](index_t x, index_t y) {
    const offset_t dx = a.row_degree(x);
    const offset_t dy = a.row_degree(y);
    return dx != dy ? dx > dy : x < y;
  });
  o.rank.resize(un);
  for (index_t r = 0; r < n; ++r) o.rank[o.orig[r]] = r;
  o.row_ptr.assign(un + 1, 0);
  for (index_t r = 0; r < n; ++r) {
    o.row_ptr[r + 1] = o.row_ptr[r] + a.row_degree(o.orig[r]);
  }
  const auto nnz = static_cast<std::size_t>(a.nnz());
  o.col_idx.resize(nnz);
  std::vector<offset_t> fill(o.row_ptr.begin(), o.row_ptr.end() - 1);
  const auto& arp = a.row_ptr();
  std::vector<offset_t> mirror(nnz);
  if (with_entry_map) {
    o.entry_map.resize(nnz);
    std::vector<offset_t> cursor(arp.begin(), arp.end() - 1);
    for (index_t u = 0; u < n; ++u) {
      const auto cols = a.row_cols(u);
      for (std::size_t e = 0; e < cols.size(); ++e) {
        mirror[static_cast<std::size_t>(arp[u]) + e] = cursor[cols[e]]++;
      }
    }
  }
  for (index_t c = 0; c < n; ++c) {
    const index_t u = o.orig[c];
    const auto cols = a.row_cols(u);
    for (std::size_t e = 0; e < cols.size(); ++e) {
      const auto q = static_cast<std::size_t>(fill[o.rank[cols[e]]]++);
      o.col_idx[q] = c;
      if (with_entry_map) {
        o.entry_map[q] = mirror[static_cast<std::size_t>(arp[u]) + e];
      }
    }
  }
  return o;
}

std::vector<std::pair<std::string, Adjacency>> relabel_cases() {
  std::vector<std::pair<std::string, Adjacency>> cases;
  cases.emplace_back("empty", graph::from_undirected_edges(0, {}));
  // Every vertex has degree 2 or 3: rank order is decided by ties alone.
  std::vector<std::pair<index_t, index_t>> ties;
  for (index_t v = 0; v < 600; ++v) ties.emplace_back(v, (v + 1) % 600);
  for (index_t v = 0; v < 600; v += 3) ties.emplace_back(v, (v + 300) % 600);
  cases.emplace_back("ties", graph::from_undirected_edges(600, ties));
  // Isolated vertices interleaved with a sparse matching.
  std::vector<std::pair<index_t, index_t>> sparse;
  for (index_t v = 0; v + 7 < 900; v += 7) sparse.emplace_back(v, v + 5);
  cases.emplace_back("isolated", graph::from_undirected_edges(900, sparse));
  // One hub adjacent to everything, over a random sparse remainder.
  Rng rng(7300);
  std::vector<std::pair<index_t, index_t>> hub;
  for (index_t v = 1; v < 1000; ++v) hub.emplace_back(0, v);
  for (int e = 0; e < 2000; ++e) {
    const auto x = static_cast<index_t>(1 + rng.next_below(999));
    const auto y = static_cast<index_t>(1 + rng.next_below(999));
    if (x != y) hub.emplace_back(x, y);
  }
  cases.emplace_back("hub", graph::from_undirected_edges(1000, hub));
  cases.emplace_back("preferential",
                     gen::preferential_bipartite(400, 500, 4000, rng));
  for (int id = 0; id < 6; ++id) {
    cases.emplace_back("seeded" + std::to_string(id), seeded_graph(id));
  }
  return cases;
}

class DegreeOrderWidthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DegreeOrderWidthTest, MatchesSerialCountingSweep) {
  ThreadPool pool(GetParam());
  ScopedPoolOverride guard(pool);
  for (const auto& [name, a] : relabel_cases()) {
    for (const bool with_entry_map : {false, true}) {
      const auto want = serial_degree_order(a, with_entry_map);
      const graph::DegreeOrder got(a, with_entry_map);
      const std::string where = name + (with_entry_map ? " +map" : "") +
                                " width " + std::to_string(GetParam());
      EXPECT_EQ(got.rank, want.rank) << where;
      EXPECT_EQ(got.orig, want.orig) << where;
      EXPECT_EQ(got.relabeled.row_ptr(), want.row_ptr) << where;
      EXPECT_EQ(got.relabeled.col_idx(), want.col_idx) << where;
      EXPECT_EQ(got.entry_map, want.entry_map) << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PoolWidths, DegreeOrderWidthTest,
                         ::testing::Values(1, 8));

// -------------------------------------------------------------------------
// Kernel layer: blocked == reference, bit for bit, at every pool width.

class BlockedWidthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BlockedWidthTest, VertexBlockedMatchesReference) {
  ThreadPool pool(GetParam());
  ScopedPoolOverride guard(pool);
  for (int id = 0; id < 12; ++id) {
    const auto a = seeded_graph(id);
    const auto ref = graph::vertex_butterflies_reference(a);
    const auto blk = graph::vertex_butterflies_blocked(a);
    ASSERT_EQ(ref, blk) << "graph " << id << " width " << GetParam();
  }
}

TEST_P(BlockedWidthTest, EdgeBlockedMatchesReference) {
  ThreadPool pool(GetParam());
  ScopedPoolOverride guard(pool);
  for (int id = 0; id < 12; ++id) {
    const auto a = seeded_graph(id);
    const auto ref = graph::edge_butterflies_reference(a);
    const auto blk = graph::edge_butterflies_blocked(a);
    ASSERT_EQ(ref.nrows(), blk.nrows()) << "graph " << id;
    for (index_t i = 0; i < ref.nrows(); ++i) {
      const auto rc = ref.row_cols(i);
      const auto bc = blk.row_cols(i);
      const auto rv = ref.row_vals(i);
      const auto bv = blk.row_vals(i);
      ASSERT_EQ(rc.size(), bc.size()) << "graph " << id << " row " << i;
      for (std::size_t e = 0; e < rc.size(); ++e) {
        ASSERT_EQ(rc[e], bc[e]) << "graph " << id << " row " << i;
        ASSERT_EQ(rv[e], bv[e])
            << "graph " << id << " edge (" << i << "," << rc[e]
            << ") width " << GetParam();
      }
    }
  }
}

TEST_P(BlockedWidthTest, DispatchersUseBlockedAndStayExact) {
  // The public entry points dispatch to the blocked kernels; they must
  // still satisfy the Def. 8 / Def. 9 identity s = ½ ◇ 1.
  ThreadPool pool(GetParam());
  ScopedPoolOverride guard(pool);
  for (int id = 0; id < 6; ++id) {
    const auto a = seeded_graph(id);
    const auto s = graph::vertex_butterflies(a);
    const auto row_sums = grb::reduce_rows(graph::edge_butterflies(a));
    for (index_t i = 0; i < a.nrows(); ++i) {
      ASSERT_EQ(2 * s[i], row_sums[i]) << "graph " << id << " vertex " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PoolWidths, BlockedWidthTest,
                         ::testing::Values(1, 2, 4, 8));

// -------------------------------------------------------------------------
// Ground-truth layer: the paper's mutual-validation loop (Thms 3–5 vs the
// blocked direct counters on materialized products) at several widths.

TEST(BlockedGroundTruth, FactoredTruthMatchesBlockedCountersAcrossWidths) {
  Rng rng(88);
  const auto a = gen::connected_random_bipartite(6, 7, 20, rng);
  const auto b = gen::connected_random_bipartite(5, 6, 16, rng);
  const auto kp = kron::BipartiteKronecker::assumption_ii(a, b);
  for (const std::size_t width : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(width);
    ScopedPoolOverride guard(pool);
    const auto check = kron::verify_ground_truth(kp);
    EXPECT_TRUE(check.vertex_ok) << "width " << width;
    EXPECT_TRUE(check.edge_ok) << "width " << width;
    EXPECT_TRUE(check.global_ok)
        << "width " << width << ": factored " << check.global_factored
        << " vs direct " << check.global_direct;
    EXPECT_GT(check.edges_checked, 0) << "width " << width;
  }
}

TEST(BlockedGroundTruth, RawLoopyProductStaysExact) {
  // M = A + I_A exercises the loop-aware branch of the factored forms and
  // a denser product than the loop-free cases above.
  Rng rng(89);
  const auto a = gen::connected_random_bipartite(5, 5, 14, rng);
  const auto b = gen::connected_random_bipartite(6, 5, 18, rng);
  const auto kp =
      kron::BipartiteKronecker::raw(grb::add_identity(a), b);
  const auto check = kron::verify_ground_truth(kp);
  EXPECT_TRUE(check.ok()) << "factored " << check.global_factored
                          << " vs direct " << check.global_direct;
}

} // namespace
} // namespace kronlab
