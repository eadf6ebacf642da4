#include "kronlab/graph/blocked.hpp"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "kronlab/obs/stats.hpp"
#include "kronlab/parallel/parallel_for.hpp"

namespace kronlab::graph {

DegreeOrder::DegreeOrder(const Adjacency& a) {
  KRONLAB_KERNEL("graph/degree_order");
  const index_t n = a.nrows();
  const auto un = static_cast<std::size_t>(n);

  // Ranks by one stable counting sort over degree buckets, highest degree
  // first: scattering ids in ascending order breaks ties by id — O(n +
  // max degree), no comparison sort.
  offset_t max_deg = 0;
  for (index_t v = 0; v < n; ++v) max_deg = std::max(max_deg, a.row_degree(v));
  std::vector<index_t> bucket(static_cast<std::size_t>(max_deg) + 2, 0);
  for (index_t v = 0; v < n; ++v) {
    ++bucket[static_cast<std::size_t>(max_deg - a.row_degree(v)) + 1];
  }
  std::partial_sum(bucket.begin(), bucket.end(), bucket.begin());
  orig.resize(un);
  rank.resize(un);
  for (index_t v = 0; v < n; ++v) {
    const index_t r =
        bucket[static_cast<std::size_t>(max_deg - a.row_degree(v))]++;
    orig[static_cast<std::size_t>(r)] = v;
    rank[static_cast<std::size_t>(v)] = r;
  }

  std::vector<offset_t> row_ptr(un + 1, 0);
  for (index_t r = 0; r < n; ++r) {
    row_ptr[static_cast<std::size_t>(r) + 1] =
        row_ptr[static_cast<std::size_t>(r)] +
        a.row_degree(orig[static_cast<std::size_t>(r)]);
  }
  const auto nnz = static_cast<std::size_t>(a.nnz());
  std::vector<index_t> col_idx(nnz);

  // Relabeled row r is N(orig[r]) mapped through rank[] and sorted in its
  // own slice, so rows build independently on the pool.  Rows arrive in
  // non-increasing degree order, so small fixed chunks keep the hub rows
  // at the head from landing on one worker.
  constexpr index_t grain = 256;
  parallel_for_range_dynamic(
      0, n,
      [&](index_t lo, index_t hi) {
        for (index_t r = lo; r < hi; ++r) {
          const auto cols = a.row_cols(orig[static_cast<std::size_t>(r)]);
          index_t* out = col_idx.data() + row_ptr[static_cast<std::size_t>(r)];
          for (std::size_t e = 0; e < cols.size(); ++e) {
            out[e] = rank[static_cast<std::size_t>(cols[e])];
          }
          std::sort(out, out + cols.size());
        }
      },
      global_pool(), grain);
  relabeled = Adjacency(n, n, std::move(row_ptr), std::move(col_idx),
                        std::vector<count_t>(nnz, 1));
}

} // namespace kronlab::graph
