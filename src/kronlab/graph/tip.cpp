#include "kronlab/graph/tip.hpp"

#include <algorithm>
#include <queue>

#include "kronlab/common/error.hpp"
#include "kronlab/graph/butterflies.hpp"
#include "kronlab/grb/ops.hpp"
#include "kronlab/obs/trace.hpp"

namespace kronlab::graph {

namespace {

void require_valid(const Adjacency& a, const Bipartition& part, int side,
                   const char* where) {
  require_undirected(a, where);
  if (!grb::has_no_self_loops(a) || !is_bipartite(a)) {
    throw domain_error(std::string(where) +
                       ": requires a loop-free bipartite graph");
  }
  KRONLAB_REQUIRE(static_cast<index_t>(part.side.size()) == a.nrows(),
                  "bipartition size mismatch");
  KRONLAB_REQUIRE(side == 0 || side == 1, "side must be 0 or 1");
  for (index_t i = 0; i < a.nrows(); ++i) {
    for (const index_t j : a.row_cols(i)) {
      KRONLAB_REQUIRE(part.side[static_cast<std::size_t>(i)] !=
                          part.side[static_cast<std::size_t>(j)],
                      "bipartition does not two-color the graph");
    }
  }
}

} // namespace

TipDecomposition tip_decomposition(const Adjacency& a,
                                   const Bipartition& part, int side) {
  KRONLAB_TRACE_SPAN("graph", "tip_decomposition");
  require_valid(a, part, side, "tip_decomposition");
  const auto n = static_cast<std::size_t>(a.nrows());

  TipDecomposition out;
  out.tip.assign(n, 0);
  out.peeled_side.assign(n, false);
  for (std::size_t v = 0; v < n; ++v) {
    out.peeled_side[v] = (part.side[v] == side);
  }

  // Initial supports: per-vertex butterfly counts on the peeled side.
  const auto s0 = vertex_butterflies(a);
  std::vector<count_t> support(n, 0);
  std::vector<char> alive(n, 0);
  using Entry = std::pair<count_t, index_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (std::size_t v = 0; v < n; ++v) {
    if (!out.peeled_side[v]) continue;
    support[v] = s0[static_cast<index_t>(v)];
    alive[v] = 1;
    heap.emplace(support[v], static_cast<index_t>(v));
  }

  VertexWedgeTable table(a.nrows());
  count_t level = 0;
  while (!heap.empty()) {
    const auto [s, v] = heap.top();
    heap.pop();
    if (!alive[static_cast<std::size_t>(v)] ||
        s != support[static_cast<std::size_t>(v)]) {
      continue;
    }
    level = std::max(level, s);
    out.tip[static_cast<std::size_t>(v)] = level;
    alive[static_cast<std::size_t>(v)] = 0;
    // Butterflies v shares with each alive same-side k: C(|N(v) ∩ N(k)|, 2).
    table.fill(a, v,
               [&](index_t k) { return alive[static_cast<std::size_t>(k)]; });
    for (const index_t k : table.touched) {
      const count_t c = table.cnt[static_cast<std::size_t>(k)];
      const count_t shared = c * (c - 1) / 2;
      if (shared > 0) {
        auto& sup = support[static_cast<std::size_t>(k)];
        sup = sup > shared ? sup - shared : 0;
        heap.emplace(sup, k);
      }
    }
    table.clear();
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (out.peeled_side[v]) out.max_tip = std::max(out.max_tip, out.tip[v]);
  }
  return out;
}

TipDecomposition tip_decomposition_naive(const Adjacency& a,
                                         const Bipartition& part,
                                         int side) {
  require_valid(a, part, side, "tip_decomposition_naive");
  KRONLAB_REQUIRE(a.nrows() <= 256, "naive decomposition is for tiny graphs");
  const auto n = static_cast<std::size_t>(a.nrows());

  TipDecomposition out;
  out.tip.assign(n, 0);
  out.peeled_side.assign(n, false);
  for (std::size_t v = 0; v < n; ++v) {
    out.peeled_side[v] = (part.side[v] == side);
  }

  // Survivors at level k: iterate deletion of peeled-side vertices with
  // in-subgraph support < k.
  for (count_t k = 1;; ++k) {
    std::vector<char> alive(n, 0);
    bool any = false;
    for (std::size_t v = 0; v < n; ++v) {
      if (out.peeled_side[v] && out.tip[v] == k - 1) {
        alive[v] = 1;
        any = true;
      }
    }
    if (!any) break;
    bool changed = true;
    while (changed) {
      changed = false;
      // Rebuild the subgraph induced by alive peeled-side vertices plus
      // the full other side.
      std::vector<std::pair<index_t, index_t>> edges;
      for (index_t i = 0; i < a.nrows(); ++i) {
        if (out.peeled_side[static_cast<std::size_t>(i)] &&
            !alive[static_cast<std::size_t>(i)]) {
          continue;
        }
        for (const index_t j : a.row_cols(i)) {
          if (i >= j) continue;
          if (out.peeled_side[static_cast<std::size_t>(j)] &&
              !alive[static_cast<std::size_t>(j)]) {
            continue;
          }
          edges.emplace_back(i, j);
        }
      }
      const auto sub = from_undirected_edges(a.nrows(), edges);
      const auto s = vertex_butterflies(sub);
      for (std::size_t v = 0; v < n; ++v) {
        if (alive[v] && s[static_cast<index_t>(v)] < k) {
          alive[v] = 0;
          changed = true;
        }
      }
    }
    bool survivor = false;
    for (std::size_t v = 0; v < n; ++v) {
      if (alive[v]) {
        out.tip[v] = k;
        survivor = true;
      }
    }
    if (!survivor) break;
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (out.peeled_side[v]) out.max_tip = std::max(out.max_tip, out.tip[v]);
  }
  return out;
}

} // namespace kronlab::graph
