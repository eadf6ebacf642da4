// kronlab/graph/wedges.hpp
//
// The wedge engine behind every direct 4-cycle count: vertex_butterflies,
// edge_butterflies and global_butterflies (graph/butterflies.cpp), and
// phase 3 of dist::distributed_global_butterflies.
//
// For each row i the engine builds the wedge table c[k] = |{j ∈ N(i) ∩
// N(k) : j < i}| over the second neighbours k < i: only wedges whose apex
// i is the largest of the three ids.  Rows are sorted, so the scan of N(i)
// stops at the first j ≥ i and the scan of each N(j) at the first k ≥ i.
// A 4-cycle has exactly one largest vertex, and both of its wedges from
// there have smaller middles, so
//   Σ_i Σ_{k<i} C(c[k], 2) = #C4
// with no division: vertex-priority butterfly counting (Wang et al.,
// VLDB 2019) with the id as the priority.
//
// The table is stamped: one uint64 per endpoint holds the row that last
// wrote it (high 32 bits) and its count (low 32 bits), so a new row needs
// no clear pass and no touched list — a slot stamped by another row reads
// as 0.  A count c ≤ min(d_i, d_k) < n fits the low half; row ids < n ≤
// 2^32 − 1 never collide with the all-ones initial stamp.
//
// A caller supplies a row accessor, `rows(j)` → sorted span of N(j) (a
// local CSR, or a shard's owned-plus-ghost rows), and a per-row body
// `body(worker, table, i)` that calls `table.fill`, with per-worker state
// from `make_worker(id)` — a scalar sum (largest_id_c4_sum), a per-vertex
// or a per-edge image.  Row i's work grows with i, so the rows are walked
// from the highest id down: the heaviest chunks are claimed first and the
// light ones backfill.
//
// The reference and naive counters in graph/butterflies.cpp deliberately
// do not use this engine: they scan every wedge of every vertex, so they
// stay independent oracles for it.

#pragma once

#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "kronlab/common/error.hpp"
#include "kronlab/graph/graph.hpp"
#include "kronlab/parallel/parallel_for.hpp"

namespace kronlab::graph {

/// One row's wedge table: per endpoint, a stamp (the row that last wrote
/// it) and a 32-bit count.
class WedgeTable {
public:
  explicit WedgeTable(index_t n)
      : slot_(static_cast<std::size_t>(n), ~std::uint64_t{0}) {}

  /// Build c[k] for row i from the wedges i–j–k with j < i and k < i,
  /// calling `visit(k, prev)` on each with c[k] before its bump.  Returns
  /// Σ prev = Σ_k C(c[k], 2).
  template <typename Rows, typename Visit>
  count_t fill(const Rows& rows, index_t i, Visit&& visit) {
    row_ = i;
    const auto row = static_cast<std::uint64_t>(i);
    count_t pairs = 0;
    for (const index_t j : rows(i)) {
      if (j >= i) break; // sorted row: the rest are middles ≥ i
      for (const index_t k : rows(j)) {
        if (k >= i) break; // sorted row: the rest pair with ids ≥ i
        auto& x = slot_[static_cast<std::size_t>(k)];
        const std::uint64_t cur = (x >> 32) == row ? x : row << 32;
        x = cur + 1;
        const auto prev = static_cast<count_t>(cur & 0xffffffffu);
        pairs += prev;
        visit(k, prev);
      }
    }
    return pairs;
  }

  template <typename Rows>
  count_t fill(const Rows& rows, index_t i) {
    return fill(rows, i, [](index_t, count_t) {});
  }

  /// c[k] of the last fill; k must be an endpoint that fill bumped.
  [[nodiscard]] count_t operator[](index_t k) const {
    const std::uint64_t x = slot_[static_cast<std::size_t>(k)];
    KRONLAB_DBG_ASSERT((x >> 32) == static_cast<std::uint64_t>(row_),
                       "wedge table: stale stamp");
    return static_cast<count_t>(x & 0xffffffffu);
  }

private:
  std::vector<std::uint64_t> slot_;
  index_t row_ = 0;
};

/// Run `body(worker, table, i)` for every row i in [lo, hi) of an
/// n-vertex graph, highest id first, on global_pool(); `body` fills
/// `table` for i.  `make_worker(id)` runs once per participating worker
/// (id < global_pool().size(); id 0 is the calling thread).
template <typename MakeWorker, typename Body>
void for_each_wedge_row(index_t n, index_t lo, index_t hi,
                        MakeWorker&& make_worker, Body&& body) {
  KRONLAB_REQUIRE(n <= std::numeric_limits<std::uint32_t>::max(),
                  "wedge engine: vertex ids exceed 32 bits");
  using Worker = decltype(make_worker(std::size_t{0}));
  struct Scratch {
    WedgeTable table;
    Worker worker;
  };
  parallel_for_range_scratch(
      lo, hi,
      [&](std::size_t id) { return Scratch{WedgeTable(n), make_worker(id)}; },
      [&](Scratch& s, index_t b, index_t e) {
        // Claim position x is row lo + hi − 1 − x: chunk [b, e) walks
        // its rows downwards.
        for (index_t i = lo + hi - 1 - b; i >= lo + hi - e; --i) {
          body(s.worker, s.table, i);
        }
      });
}

/// Scalar count: the 4-cycles whose largest id lies in [lo, hi).  Over
/// every row of a graph that is #C4.
template <typename Rows>
count_t largest_id_c4_sum(index_t n, index_t lo, index_t hi,
                          const Rows& rows) {
  std::vector<count_t> sums(global_pool().size(), 0);
  for_each_wedge_row(
      n, lo, hi, [&](std::size_t id) { return &sums[id]; },
      [&](count_t* sum, WedgeTable& t, index_t i) { *sum += t.fill(rows, i); });
  return std::accumulate(sums.begin(), sums.end(), count_t{0});
}

/// Row accessor over a local CSR adjacency.
inline auto csr_rows(const Adjacency& a) {
  return [&a](index_t j) { return a.row_cols(j); };
}

} // namespace kronlab::graph
