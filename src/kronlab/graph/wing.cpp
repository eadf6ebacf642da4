#include "kronlab/graph/wing.hpp"

#include <algorithm>
#include <queue>

#include "kronlab/common/error.hpp"
#include "kronlab/graph/bipartite.hpp"
#include "kronlab/graph/butterflies.hpp"
#include "kronlab/grb/ops.hpp"
#include "kronlab/obs/stats.hpp"
#include "kronlab/parallel/parallel_for.hpp"

namespace kronlab::graph {

namespace {

void require_bipartite_simple(const Adjacency& a, const char* where) {
  require_undirected(a, where);
  if (!grb::has_no_self_loops(a) || !is_bipartite(a)) {
    throw domain_error(std::string(where) +
                       ": requires a loop-free bipartite graph");
  }
}

/// Undirected edge bookkeeping over a symmetric CSR: each stored entry
/// maps to an undirected edge id shared with its mirror.
struct EdgeIndex {
  explicit EdgeIndex(const Adjacency& a) : a_(&a) {
    entry_edge.assign(static_cast<std::size_t>(a.nnz()), -1);
    index_t next = 0;
    for (index_t i = 0; i < a.nrows(); ++i) {
      const auto cols = a.row_cols(i);
      const auto base = static_cast<std::size_t>(a.row_ptr()[i]);
      for (std::size_t e = 0; e < cols.size(); ++e) {
        if (i < cols[e]) {
          entry_edge[base + e] = next;
          endpoints.emplace_back(i, cols[e]);
          ++next;
        }
      }
    }
    // Second pass fills the mirrored entries.
    for (index_t i = 0; i < a.nrows(); ++i) {
      const auto cols = a.row_cols(i);
      const auto base = static_cast<std::size_t>(a.row_ptr()[i]);
      for (std::size_t e = 0; e < cols.size(); ++e) {
        if (i > cols[e]) {
          entry_edge[base + e] = id(cols[e], i);
        }
      }
    }
  }

  /// Edge id of (u,v) with u < v, via binary search in row u.
  [[nodiscard]] index_t id(index_t u, index_t v) const {
    KRONLAB_DBG_ASSERT(u < v, "id expects u < v");
    const auto cols = a_->row_cols(u);
    const auto it = std::lower_bound(cols.begin(), cols.end(), v);
    KRONLAB_DBG_ASSERT(it != cols.end() && *it == v, "edge must exist");
    return entry_edge[static_cast<std::size_t>(a_->row_ptr()[u]) +
                      static_cast<std::size_t>(it - cols.begin())];
  }

  [[nodiscard]] index_t id_any(index_t u, index_t v) const {
    return u < v ? id(u, v) : id(v, u);
  }

  [[nodiscard]] index_t count() const {
    return static_cast<index_t>(endpoints.size());
  }

  const Adjacency* a_;
  std::vector<index_t> entry_edge; ///< per CSR entry → undirected edge id
  std::vector<std::pair<index_t, index_t>> endpoints;
};

} // namespace

std::vector<std::pair<index_t, index_t>> WingDecomposition::wing_edges(
    count_t k) const {
  std::vector<std::pair<index_t, index_t>> out;
  for (index_t i = 0; i < wing.nrows(); ++i) {
    const auto cols = wing.row_cols(i);
    const auto vals = wing.row_vals(i);
    for (std::size_t e = 0; e < cols.size(); ++e) {
      if (i < cols[e] && vals[e] >= k) out.emplace_back(i, cols[e]);
    }
  }
  return out;
}

WingDecomposition wing_decomposition(const Adjacency& a) {
  require_bipartite_simple(a, "wing_decomposition");
  KRONLAB_KERNEL("graph/wing_decomposition");
  const EdgeIndex ei(a);
  const index_t m = ei.count();

  // Initial support = per-edge butterfly counts.  Each undirected edge id
  // is written exactly once (from its i < j endpoint), so the scatter is
  // race-free.
  std::vector<count_t> support(static_cast<std::size_t>(m), 0);
  {
    const auto sq = edge_butterflies(a);
    parallel_for(0, a.nrows(), [&](index_t i) {
      const auto cols = sq.row_cols(i);
      const auto vals = sq.row_vals(i);
      for (std::size_t e = 0; e < cols.size(); ++e) {
        if (i < cols[e]) {
          support[static_cast<std::size_t>(ei.id(i, cols[e]))] = vals[e];
        }
      }
    });
  }

  std::vector<char> alive(static_cast<std::size_t>(m), 1);
  std::vector<count_t> wing_num(static_cast<std::size_t>(m), 0);

  // Min-heap with lazy deletion: (support, edge id).
  using Entry = std::pair<count_t, index_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (index_t e = 0; e < m; ++e) {
    heap.emplace(support[static_cast<std::size_t>(e)], e);
  }

  count_t level = 0;
  while (!heap.empty()) {
    const auto [s, e] = heap.top();
    heap.pop();
    if (!alive[static_cast<std::size_t>(e)] ||
        s != support[static_cast<std::size_t>(e)]) {
      continue; // stale heap entry
    }
    level = std::max(level, s);
    wing_num[static_cast<std::size_t>(e)] = level;
    alive[static_cast<std::size_t>(e)] = 0;

    // Enumerate alive butterflies through e = (u,v) and decrement the
    // other three edges of each.
    const auto [u, v] = ei.endpoints[static_cast<std::size_t>(e)];
    const auto decrement = [&](index_t edge_id) {
      auto& sup = support[static_cast<std::size_t>(edge_id)];
      if (sup > 0) {
        --sup;
        heap.emplace(sup, edge_id);
      }
    };
    for (const index_t up : a.row_cols(v)) {
      if (up == u) continue;
      const index_t e_upv = ei.id_any(up, v);
      if (!alive[static_cast<std::size_t>(e_upv)]) continue;
      // Common neighbors of u and u' (sorted merge), excluding v.
      const auto nu = a.row_cols(u);
      const auto nup = a.row_cols(up);
      std::size_t x = 0, y = 0;
      while (x < nu.size() && y < nup.size()) {
        if (nu[x] < nup[y]) {
          ++x;
        } else if (nup[y] < nu[x]) {
          ++y;
        } else {
          const index_t w = nu[x];
          ++x;
          ++y;
          if (w == v) continue;
          const index_t e_uw = ei.id_any(u, w);
          const index_t e_upw = ei.id_any(up, w);
          if (!alive[static_cast<std::size_t>(e_uw)] ||
              !alive[static_cast<std::size_t>(e_upw)]) {
            continue;
          }
          decrement(e_upv);
          decrement(e_uw);
          decrement(e_upw);
        }
      }
    }
  }

  // Assemble the result matrix with a's structure.
  WingDecomposition out;
  grb::Array<count_t> vals(static_cast<std::size_t>(a.nnz()));
  for (std::size_t k = 0; k < vals.size(); ++k) {
    vals[k] = wing_num[static_cast<std::size_t>(ei.entry_edge[k])];
  }
  out.wing = grb::Csr<count_t>(a, std::move(vals));
  for (const count_t w : out.wing.vals()) {
    out.max_wing = std::max(out.max_wing, w);
  }
  return out;
}

WingDecomposition wing_decomposition_naive(const Adjacency& a) {
  require_bipartite_simple(a, "wing_decomposition_naive");
  KRONLAB_REQUIRE(a.nrows() <= 256, "naive decomposition is for tiny graphs");

  // wing(e) = largest k such that e survives iterated deletion of edges
  // with in-subgraph support < k.
  std::vector<std::pair<index_t, index_t>> edges;
  for (index_t i = 0; i < a.nrows(); ++i) {
    for (const index_t j : a.row_cols(i)) {
      if (i < j) edges.emplace_back(i, j);
    }
  }
  std::vector<count_t> wing_num(edges.size(), 0);
  for (count_t k = 1;; ++k) {
    // Iterate deletion at threshold k over the surviving subgraph.
    std::vector<std::pair<index_t, index_t>> current;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (wing_num[e] == k - 1) current.push_back(edges[e]);
    }
    if (current.empty()) break;
    bool changed = true;
    while (changed && !current.empty()) {
      const auto sub = from_undirected_edges(a.nrows(), current);
      const auto sq = edge_butterflies(sub);
      std::vector<std::pair<index_t, index_t>> next;
      for (const auto& [i, j] : current) {
        if (sq.at(i, j) >= k) next.emplace_back(i, j);
      }
      changed = next.size() != current.size();
      current = std::move(next);
    }
    if (current.empty()) break;
    // Survivors have wing number >= k.
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (wing_num[e] != k - 1) continue;
      for (const auto& [i, j] : current) {
        if (edges[e] == std::make_pair(i, j)) {
          wing_num[e] = k;
          break;
        }
      }
    }
  }

  WingDecomposition out;
  grb::Coo<count_t> coo(a.nrows(), a.ncols());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    coo.push(edges[e].first, edges[e].second, wing_num[e] + 1);
    coo.push(edges[e].second, edges[e].first, wing_num[e] + 1);
  }
  // +1 shift keeps zero wings from being dropped by from_coo; undo it.
  out.wing = grb::Csr<count_t>::from_coo(coo);
  for (auto& v : out.wing.vals()) --v;
  for (const count_t w : out.wing.vals()) {
    out.max_wing = std::max(out.max_wing, w);
  }
  return out;
}

} // namespace kronlab::graph
