// Randomized cross-checks for the wedge engine (graph/wedges.hpp) behind
// every direct 4-cycle count: the public vertex/edge/global counters and
// the distributed count against the retained reference and naive oracles
// and the factored ground truth (Thms 3–5), at every pool width the CI
// sanitizer jobs exercise.  Every count runs on the largest-id wedges,
// and the engine's failure modes all break bit-exact agreement here: a
// wrong cut of the middles at j < i (a 4-cycle seen from a vertex that is
// not its largest, or not at all), a stale stamp (a count carried over from
// another row of the same worker), a vertex count that drops the middle
// credit or credits a middle c[k] instead of the c[k] − 1 other middles,
// a credit on the wrong side of the edge fold, a ghost exchange that
// leaves out a row below a shard's first row that phase 3 reads, and
// scheduling bugs (scratch leakage between chunks, a dropped chunk).
// Complete bipartite graphs under every labeling pin the largest-id rule
// against closed forms.  The DegreeOrder relabel, no longer on any
// counting path, keeps its own permutation and pool-width checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "kronlab/common/error.hpp"
#include "kronlab/dist/comm.hpp"
#include "kronlab/dist/sharded.hpp"
#include "kronlab/gen/canonical.hpp"
#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/gen/rmat.hpp"
#include "kronlab/graph/blocked.hpp"
#include "kronlab/graph/butterflies.hpp"
#include "kronlab/grb/coo.hpp"
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
// Relabeling layer: DegreeOrder must be a degree-sorted permutation.

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

// -------------------------------------------------------------------------
// Parallel relabel: DegreeOrder builds rows independently on the pool; it
// must reproduce, array for array, the serial build it replaced (a
// comparison sort for the ranks plus one counting sweep that emits every
// relabeled row already sorted).

struct SerialOrder {
  std::vector<index_t> rank, orig;
  grb::Array<offset_t> row_ptr;
  grb::Array<index_t> col_idx;
};

SerialOrder serial_degree_order(const Adjacency& a) {
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
  for (index_t c = 0; c < n; ++c) {
    for (const index_t v : a.row_cols(o.orig[c])) {
      o.col_idx[static_cast<std::size_t>(fill[o.rank[v]]++)] = c;
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
    const auto want = serial_degree_order(a);
    const graph::DegreeOrder got(a);
    const std::string where = name + " width " + std::to_string(GetParam());
    EXPECT_EQ(got.rank, want.rank) << where;
    EXPECT_EQ(got.orig, want.orig) << where;
    EXPECT_EQ(got.relabeled.row_ptr(), want.row_ptr) << where;
    EXPECT_EQ(got.relabeled.col_idx(), want.col_idx) << where;
  }
}

INSTANTIATE_TEST_SUITE_P(PoolWidths, DegreeOrderWidthTest,
                         ::testing::Values(1, 8));


// -------------------------------------------------------------------------
// Engine inputs: the largest-id rule must not care where the hubs sit,
// nor how large the id space is (the stamp shares a word with the count),
// nor whether there are any wedges at all.

/// `a` with its vertex ids shuffled: the hubs of a preferential graph
/// land anywhere in the id space, not at its head.
Adjacency shuffled(const Adjacency& a, std::uint64_t seed) {
  std::vector<index_t> perm(static_cast<std::size_t>(a.nrows()));
  std::iota(perm.begin(), perm.end(), index_t{0});
  Rng rng(seed);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.next_below(i)]);
  }
  std::vector<std::pair<index_t, index_t>> edges;
  for (index_t u = 0; u < a.nrows(); ++u) {
    for (const index_t v : a.row_cols(u)) {
      if (u < v) edges.emplace_back(perm[u], perm[v]);
    }
  }
  return graph::from_undirected_edges(a.nrows(), edges);
}

std::vector<std::pair<std::string, Adjacency>> engine_cases() {
  std::vector<std::pair<std::string, Adjacency>> cases;
  for (int id = 0; id < 12; ++id) {
    cases.emplace_back("seeded" + std::to_string(id), seeded_graph(id));
  }
  Rng rng(7400);
  cases.emplace_back(
      "shuffled-preferential",
      shuffled(gen::preferential_bipartite(300, 400, 3000, rng), 7401));
  cases.emplace_back("empty", graph::from_undirected_edges(0, {}));
  cases.emplace_back("edgeless", graph::from_undirected_edges(50, {}));
  cases.emplace_back("star", gen::star_graph(40));
  return cases;
}

void expect_same_edges(const grb::Csr<count_t>& want,
                       const grb::Csr<count_t>& got,
                       const std::string& where) {
  ASSERT_EQ(want.nrows(), got.nrows()) << where;
  ASSERT_EQ(want.row_ptr(), got.row_ptr()) << where;
  ASSERT_EQ(want.col_idx(), got.col_idx()) << where;
  for (index_t i = 0; i < want.nrows(); ++i) {
    const auto cols = want.row_cols(i);
    const auto wv = want.row_vals(i);
    const auto gv = got.row_vals(i);
    for (std::size_t e = 0; e < cols.size(); ++e) {
      ASSERT_EQ(wv[e], gv[e])
          << where << " edge (" << i << "," << cols[e] << ")";
    }
  }
}

// -------------------------------------------------------------------------
// Kernel layer: engine == reference == naive, bit for bit, at every pool
// width.

class EngineWidthTest : public ::testing::TestWithParam<std::size_t> {
protected:
  static constexpr index_t kNaiveMax = 128; ///< naive counters' size cap

  std::string where(const std::string& name) const {
    return name + " width " + std::to_string(GetParam());
  }
};

TEST_P(EngineWidthTest, VertexMatchesReferenceAndNaive) {
  ThreadPool pool(GetParam());
  ScopedPoolOverride guard(pool);
  for (const auto& [name, a] : engine_cases()) {
    const auto got = graph::vertex_butterflies(a);
    ASSERT_EQ(graph::vertex_butterflies_reference(a), got) << where(name);
    if (a.nrows() <= kNaiveMax) {
      ASSERT_EQ(graph::vertex_butterflies_naive(a), got) << where(name);
    }
  }
}

TEST_P(EngineWidthTest, EdgeMatchesReferenceAndNaive) {
  ThreadPool pool(GetParam());
  ScopedPoolOverride guard(pool);
  for (const auto& [name, a] : engine_cases()) {
    const auto got = graph::edge_butterflies(a);
    // The counts ride on a's pattern instead of a copy of it.
    EXPECT_EQ(got.row_ptr().data(), a.row_ptr().data()) << where(name);
    EXPECT_EQ(got.col_idx().data(), a.col_idx().data()) << where(name);
    const auto reference = graph::edge_butterflies_reference(a);
    EXPECT_EQ(reference.col_idx().data(), a.col_idx().data()) << where(name);
    expect_same_edges(reference, got, where(name));
    if (a.nrows() <= kNaiveMax) {
      const auto naive = graph::edge_butterflies_naive(a);
      EXPECT_EQ(naive.col_idx().data(), a.col_idx().data()) << where(name);
      expect_same_edges(naive, got, where(name));
    }
  }
}

TEST_P(EngineWidthTest, GlobalMatchesReferenceAndNaive) {
  ThreadPool pool(GetParam());
  ScopedPoolOverride guard(pool);
  for (const auto& [name, a] : engine_cases()) {
    const count_t got = graph::global_butterflies(a);
    ASSERT_EQ(grb::reduce(graph::vertex_butterflies_reference(a)), 4 * got)
        << where(name);
    if (a.nrows() <= kNaiveMax) {
      ASSERT_EQ(graph::global_butterflies_naive(a), got) << where(name);
    }
  }
}

TEST_P(EngineWidthTest, DispatchersStayExact) {
  // The per-vertex and per-edge drains must still satisfy the Def. 8 /
  // Def. 9 identity s = ½ ◇ 1.
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

TEST_P(EngineWidthTest, IdsBeyondSixteenBitsMatchReference) {
  // n > 65,536: wedge endpoints whose ids do not fit 16 bits.
  ThreadPool pool(GetParam());
  ScopedPoolOverride guard(pool);
  Rng rng(7500);
  const auto a = gen::random_bipartite(36000, 34000, 140000, rng);
  ASSERT_GT(a.nrows(), 65536);
  const auto s = graph::vertex_butterflies(a);
  ASSERT_EQ(graph::vertex_butterflies_reference(a), s) << where("large");
  ASSERT_GT(grb::reduce(s), 0) << "instance has no 4-cycles to compare";
  expect_same_edges(graph::edge_butterflies_reference(a),
                    graph::edge_butterflies(a), where("large"));
  EXPECT_EQ(4 * graph::global_butterflies(a), grb::reduce(s))
      << where("large");
}

// -------------------------------------------------------------------------
// Distributed layer: phase 3 runs the same engine over owned-plus-ghost
// rows; with 1–5 ranks (one of them owning no rows from 3 ranks up) it
// must return global_butterflies on every rank.

/// Row shard [begin, end) of `g`.
dist::Shard shard_of(const Adjacency& g, index_t begin, index_t end) {
  dist::Shard shard;
  shard.n = g.nrows();
  shard.row_begin = begin;
  shard.row_end = end;
  grb::Coo<count_t> coo(end - begin, g.nrows());
  for (index_t u = begin; u < end; ++u) {
    for (const index_t v : g.row_cols(u)) coo.push(u - begin, v, 1);
  }
  shard.rows = grb::Csr<count_t>::from_coo(coo);
  return shard;
}

TEST_P(EngineWidthTest, DistributedMatchesGlobalAtOneToFiveRanks) {
  ThreadPool pool(GetParam());
  Rng rng(7600);
  const std::vector<std::pair<std::string, Adjacency>> graphs = {
      {"shuffled-preferential",
       shuffled(gen::preferential_bipartite(60, 80, 500, rng), 7601)},
      {"nonbipartite", gen::random_nonbipartite_connected(90, 400, rng)},
  };
  for (const auto& [name, g] : graphs) {
    const count_t expect = graph::global_butterflies(g);
    ASSERT_GT(expect, 0) << name;
    const index_t n = g.nrows();
    for (index_t ranks = 1; ranks <= 5; ++ranks) {
      std::vector<index_t> begins(static_cast<std::size_t>(ranks) + 1);
      for (index_t r = 0; r <= ranks; ++r) begins[r] = n * r / ranks;
      if (ranks >= 3) begins[2] = begins[1]; // rank 1 owns no rows
      dist::run(ranks, [&](dist::Comm& comm) {
        ScopedPoolOverride guard(pool); // every rank shares one pool
        const auto r = static_cast<std::size_t>(comm.rank());
        const auto shard = shard_of(g, begins[r], begins[r + 1]);
        EXPECT_EQ(dist::distributed_global_butterflies(comm, shard), expect)
            << where(name) << " ranks " << ranks << " rank " << r;
      });
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PoolWidths, EngineWidthTest,
                         ::testing::Values(1, 2, 4, 8));

// -------------------------------------------------------------------------
// Largest-id rule: on K_{a,b} every count has a closed form — C(a,2)·C(b,2)
// 4-cycles, (a−1)·C(b,2) at a vertex on the a side, (a−1)(b−1) on every
// edge — whatever the labeling.  Running through all labelings moves each
// 4-cycle's largest vertex to every position, so a wrong middle cut, a
// stale stamp, a wrong middle credit, a credit on the wrong side of the
// edge fold or a missing ghost row moves some count off its closed form.

count_t choose2(index_t x) { return count_t{x} * (x - 1) / 2; }

void expect_closed_forms_under_every_labeling(index_t a, index_t b) {
  const index_t n = a + b;
  std::vector<index_t> label(static_cast<std::size_t>(n));
  std::iota(label.begin(), label.end(), index_t{0});
  const count_t global = choose2(a) * choose2(b);
  const count_t edge = count_t{a - 1} * (b - 1);
  int labelings = 0;
  do {
    ++labelings;
    std::vector<std::pair<index_t, index_t>> edges;
    for (index_t x = 0; x < a; ++x) {
      for (index_t y = a; y < n; ++y) edges.emplace_back(label[x], label[y]);
    }
    const auto g = graph::from_undirected_edges(n, edges);
    std::string where = "K_{" + std::to_string(a) + "," + std::to_string(b) +
                        "} labeling";
    for (const index_t v : label) where += " " + std::to_string(v);

    ASSERT_EQ(graph::global_butterflies(g), global) << where;
    const auto s = graph::vertex_butterflies(g);
    for (index_t x = 0; x < n; ++x) {
      const count_t want =
          x < a ? (a - 1) * choose2(b) : (b - 1) * choose2(a);
      ASSERT_EQ(s[label[x]], want) << where << " vertex " << label[x];
    }
    const auto e = graph::edge_butterflies(g);
    for (index_t i = 0; i < n; ++i) {
      const auto cols = e.row_cols(i);
      const auto vals = e.row_vals(i);
      for (std::size_t f = 0; f < cols.size(); ++f) {
        ASSERT_EQ(vals[f], edge) << where << " edge (" << i << "," << cols[f]
                                 << ")";
      }
    }
    for (const index_t ranks : {2, 3}) {
      dist::run(ranks, [&](dist::Comm& comm) {
        const index_t r = comm.rank();
        const auto shard = shard_of(g, n * r / ranks, n * (r + 1) / ranks);
        EXPECT_EQ(dist::distributed_global_butterflies(comm, shard), global)
            << where << " ranks " << ranks << " rank " << r;
      });
    }
  } while (std::next_permutation(label.begin(), label.end()));
  int all = 1;
  for (index_t v = 2; v <= n; ++v) all *= static_cast<int>(v);
  EXPECT_EQ(labelings, all);
}

TEST(LargestIdRule, EveryLabelingOfC4) {
  expect_closed_forms_under_every_labeling(2, 2); // 24 labelings
}

TEST(LargestIdRule, EveryLabelingOfK23) {
  expect_closed_forms_under_every_labeling(2, 3); // 120 labelings
}

TEST(LargestIdRule, EveryLabelingOfK33) {
  expect_closed_forms_under_every_labeling(3, 3); // 720 labelings
}

TEST(EngineInputs, SelfLoopsRaiseDomainError) {
  const auto a =
      graph::from_undirected_edges(4, {{0, 1}, {1, 2}, {2, 2}, {2, 3}});
  EXPECT_THROW((void)graph::vertex_butterflies(a), domain_error);
  EXPECT_THROW((void)graph::edge_butterflies(a), domain_error);
  EXPECT_THROW((void)graph::global_butterflies(a), domain_error);
}

// -------------------------------------------------------------------------
// Ground-truth layer: the paper's mutual-validation loop (Thms 3–5 vs the
// engine's direct counts on materialized products) at several widths.

TEST(EngineGroundTruth, FactoredTruthMatchesEngineAcrossWidths) {
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

TEST(EngineGroundTruth, RawLoopyProductStaysExact) {
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
