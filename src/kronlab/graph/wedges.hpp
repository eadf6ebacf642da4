// kronlab/graph/wedges.hpp
//
// The wedge engine behind every direct 4-cycle count: vertex_butterflies,
// edge_butterflies and global_butterflies (graph/butterflies.cpp), and
// phase 3 of dist::distributed_global_butterflies.
//
// For each row i the engine builds the wedge table c[k] = |N(i) ∩ N(k)|
// over the second neighbours k < i only: rows are sorted, so the scan of
// each N(j) stops at the first k ≥ i.  That is id-order pair halving —
// every unordered endpoint pair {i, k} is materialized exactly once, from
// its larger id, in any vertex order and with no degree information — so
//   Σ_i Σ_{k<i} C(c[k], 2) = 2·#C4   (each 4-cycle has two diagonals).
// A count c ≤ min(d_i, d_k) < n, so the dense per-worker table holds
// 32-bit counters.
//
// A caller supplies two things:
//  * a row accessor, `rows(j)` → sorted span of N(j): a local CSR, or a
//    shard's owned-plus-ghost rows;
//  * a drain, `drain(worker, i, table)`, run once per row while the table
//    is live, with per-worker state from `make_worker(id)` — a scalar sum
//    (halved_pair_sum), a per-vertex or a per-edge partial vector.
//
// Rows are spread over global_pool() in claimed chunks; the table
// is cleared through its touched list, so a row costs O(its wedges).
//
// The reference and naive counters in graph/butterflies.cpp deliberately
// do not use this engine: they scan every wedge, unhalved, so they stay
// independent oracles for it.

#pragma once

#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "kronlab/common/error.hpp"
#include "kronlab/graph/graph.hpp"
#include "kronlab/parallel/parallel_for.hpp"

namespace kronlab::graph {

/// One row's halved wedge table: dense 32-bit counts over [0, n) plus the
/// ids touched since the last clear.
class HalvedWedgeTable {
public:
  explicit HalvedWedgeTable(index_t n)
      : cnt_(static_cast<std::size_t>(n), 0) {}

  /// c[k] = |N(i) ∩ N(k)| for every second neighbour k < i.
  template <typename Rows>
  void fill(const Rows& rows, index_t i) {
    for (const index_t j : rows(i)) {
      for (const index_t k : rows(j)) {
        if (k >= i) break; // sorted row: the rest pair with ids ≥ i
        auto& c = cnt_[static_cast<std::size_t>(k)];
        if (c++ == 0) touched_.push_back(k);
      }
    }
  }

  [[nodiscard]] count_t operator[](index_t k) const {
    return static_cast<count_t>(cnt_[static_cast<std::size_t>(k)]);
  }

  /// Endpoints k with c[k] > 0, in first-touch order.
  [[nodiscard]] const std::vector<index_t>& touched() const {
    return touched_;
  }

  /// Σ_k C(c[k], 2): the butterflies row i shares with lower ids.
  [[nodiscard]] count_t pairs() const {
    count_t sum = 0;
    for (const index_t k : touched_) {
      const count_t c = (*this)[k];
      sum += c * (c - 1) / 2;
    }
    return sum;
  }

  void clear() {
    for (const index_t k : touched_) cnt_[static_cast<std::size_t>(k)] = 0;
    touched_.clear();
  }

private:
  std::vector<std::uint32_t> cnt_;
  std::vector<index_t> touched_;
};

/// Run `drain(worker, i, table)` for every row i in [lo, hi) of an
/// n-vertex graph, with `table` filled for i, on global_pool().
/// `make_worker(id)` runs once per participating worker (id <
/// global_pool().size()).
template <typename Rows, typename MakeWorker, typename Drain>
void for_each_halved_wedge_table(index_t n, index_t lo, index_t hi,
                                 const Rows& rows, MakeWorker&& make_worker,
                                 Drain&& drain) {
  KRONLAB_REQUIRE(n <= std::numeric_limits<std::uint32_t>::max(),
                  "wedge engine: vertex ids exceed 32 bits");
  using Worker = decltype(make_worker(std::size_t{0}));
  struct Scratch {
    HalvedWedgeTable table;
    Worker worker;
  };
  parallel_for_range_scratch(
      lo, hi,
      [&](std::size_t id) {
        return Scratch{HalvedWedgeTable(n), make_worker(id)};
      },
      [&](Scratch& s, index_t b, index_t e) {
        for (index_t i = b; i < e; ++i) {
          s.table.fill(rows, i);
          drain(s.worker, i, s.table);
          s.table.clear();
        }
      });
}

/// Scalar drain: Σ_{i∈[lo,hi)} Σ_{k<i} C(c[k], 2).  Over every row of a
/// graph that is 2·#C4.
template <typename Rows>
count_t halved_pair_sum(index_t n, index_t lo, index_t hi,
                        const Rows& rows) {
  std::vector<count_t> sums(global_pool().size(), 0);
  for_each_halved_wedge_table(
      n, lo, hi, rows, [&](std::size_t id) { return &sums[id]; },
      [](count_t* sum, index_t, const HalvedWedgeTable& t) {
        *sum += t.pairs();
      });
  return std::accumulate(sums.begin(), sums.end(), count_t{0});
}

/// Row accessor over a local CSR adjacency.
inline auto csr_rows(const Adjacency& a) {
  return [&a](index_t j) { return a.row_cols(j); };
}

} // namespace kronlab::graph
