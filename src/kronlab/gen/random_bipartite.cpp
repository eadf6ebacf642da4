#include "kronlab/gen/random_bipartite.hpp"

#include <algorithm>
#include <initializer_list>
#include <numeric>
#include <unordered_set>
#include <utility>
#include <vector>

#include "kronlab/common/error.hpp"

namespace kronlab::gen {

namespace {

using EdgeList = std::vector<std::pair<index_t, index_t>>;

/// Pack a bipartite (u, w-local) pair for dedup sets.
inline std::uint64_t pack(index_t u, index_t w_local, index_t nw) {
  return static_cast<std::uint64_t>(u) * static_cast<std::uint64_t>(nw) +
         static_cast<std::uint64_t>(w_local);
}

/// Renumber the vertices of each id range `[lo, hi)` in `ranges` by
/// ascending degree, ties in their current order, and rewrite `edges` to
/// the new ids.  A random recursive tree makes its oldest, lowest ids the
/// hubs, the worst numbering for the largest-id wedge rule
/// (graph/wedges.hpp); the header states the contract this keeps.
void number_hubs_last(
    EdgeList& edges, index_t n,
    std::initializer_list<std::pair<index_t, index_t>> ranges) {
  const auto at = [](index_t v) { return static_cast<std::size_t>(v); };
  std::vector<index_t> degree(at(n), 0);
  for (const auto& [i, j] : edges) {
    ++degree[at(i)];
    ++degree[at(j)];
  }
  // A counting sort by degree within each range: stable, so ties keep
  // their order.  Degrees are < n, so n + 1 slots hold every start.
  std::vector<index_t> id(at(n));
  std::vector<index_t> next(at(n) + 1);
  for (const auto& [lo, hi] : ranges) {
    std::fill(next.begin(), next.end(), index_t{0});
    for (index_t v = lo; v < hi; ++v) ++next[at(degree[at(v)]) + 1];
    std::partial_sum(next.begin(), next.end(), next.begin());
    for (index_t v = lo; v < hi; ++v) {
      id[at(v)] = lo + next[at(degree[at(v)])]++;
    }
  }
  for (auto& [i, j] : edges) {
    i = id[at(i)];
    j = id[at(j)];
  }
}

} // namespace

Adjacency random_bipartite(index_t nu, index_t nw, count_t m, Rng& rng) {
  KRONLAB_REQUIRE(nu >= 1 && nw >= 1, "sides must be non-empty");
  KRONLAB_REQUIRE(m >= 0 && m <= nu * nw, "edge count out of range");
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(static_cast<std::size_t>(m) * 2);
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(m));
  while (static_cast<count_t>(edges.size()) < m) {
    const index_t u = rng.uniform(0, nu - 1);
    const index_t w = rng.uniform(0, nw - 1);
    if (seen.insert(pack(u, w, nw)).second) {
      edges.emplace_back(u, nu + w);
    }
  }
  return graph::from_undirected_edges(nu + nw, edges);
}

Adjacency connected_random_bipartite(index_t nu, index_t nw, count_t m,
                                     Rng& rng) {
  KRONLAB_REQUIRE(nu >= 1 && nw >= 1, "sides must be non-empty");
  KRONLAB_REQUIRE(m >= nu + nw - 1, "too few edges for connectivity");
  KRONLAB_REQUIRE(m <= nu * nw, "edge count exceeds complete bipartite");

  std::unordered_set<std::uint64_t> seen;
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(m));

  // Spanning structure: attach each new vertex (alternating side order when
  // possible) to a uniformly random already-attached vertex on the other
  // side.  This is a bipartite random recursive tree.
  std::vector<index_t> attached_u{0};
  std::vector<index_t> attached_w;
  index_t next_u = 1, next_w = 0;
  while (next_u < nu || next_w < nw) {
    const bool grow_w =
        next_w < nw && (next_u >= nu || attached_w.size() <= attached_u.size());
    if (grow_w) {
      const index_t u =
          attached_u[static_cast<std::size_t>(rng.uniform(
              0, static_cast<index_t>(attached_u.size()) - 1))];
      seen.insert(pack(u, next_w, nw));
      edges.emplace_back(u, nu + next_w);
      attached_w.push_back(next_w++);
    } else {
      KRONLAB_REQUIRE(!attached_w.empty(),
                      "internal: cannot attach U vertex before any W exists");
      const index_t w =
          attached_w[static_cast<std::size_t>(rng.uniform(
              0, static_cast<index_t>(attached_w.size()) - 1))];
      seen.insert(pack(next_u, w, nw));
      edges.emplace_back(next_u, nu + w);
      attached_u.push_back(next_u++);
    }
  }

  while (static_cast<count_t>(edges.size()) < m) {
    const index_t u = rng.uniform(0, nu - 1);
    const index_t w = rng.uniform(0, nw - 1);
    if (seen.insert(pack(u, w, nw)).second) {
      edges.emplace_back(u, nu + w);
    }
  }
  number_hubs_last(edges, nu + nw, {{0, nu}, {nu, nu + nw}});
  return graph::from_undirected_edges(nu + nw, edges);
}

Adjacency preferential_bipartite(index_t nu, index_t nw, count_t m,
                                 Rng& rng) {
  KRONLAB_REQUIRE(nu >= 1 && nw >= 1, "sides must be non-empty");
  KRONLAB_REQUIRE(m >= 0 && m <= nu * nw, "edge count out of range");
  std::unordered_set<std::uint64_t> seen;
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(m));
  // Repeat-draw urns: each accepted edge adds its endpoints to the urns,
  // giving P(pick v) ∝ deg(v) + 1 via the mixture of urn and uniform draw.
  std::vector<index_t> urn_u, urn_w;
  count_t attempts = 0;
  const count_t max_attempts = 64 * (m + 16);
  while (static_cast<count_t>(edges.size()) < m) {
    // Excessive duplicate draws can only happen near the complete graph;
    // fall back to uniform fill to guarantee termination.
    if (++attempts > max_attempts) {
      for (index_t u = 0; u < nu && static_cast<count_t>(edges.size()) < m;
           ++u) {
        for (index_t w = 0; w < nw && static_cast<count_t>(edges.size()) < m;
             ++w) {
          if (seen.insert(pack(u, w, nw)).second) {
            edges.emplace_back(u, nu + w);
          }
        }
      }
      break;
    }
    const bool urn_pick_u = !urn_u.empty() && rng.bernoulli(0.7);
    const bool urn_pick_w = !urn_w.empty() && rng.bernoulli(0.7);
    const index_t u =
        urn_pick_u ? urn_u[static_cast<std::size_t>(rng.uniform(
                         0, static_cast<index_t>(urn_u.size()) - 1))]
                   : rng.uniform(0, nu - 1);
    const index_t w =
        urn_pick_w ? urn_w[static_cast<std::size_t>(rng.uniform(
                         0, static_cast<index_t>(urn_w.size()) - 1))]
                   : rng.uniform(0, nw - 1);
    if (seen.insert(pack(u, w, nw)).second) {
      edges.emplace_back(u, nu + w);
      urn_u.push_back(u);
      urn_w.push_back(w);
    }
  }
  return graph::from_undirected_edges(nu + nw, edges);
}

Adjacency chung_lu_bipartite(const std::vector<double>& wu,
                             const std::vector<double>& ww, Rng& rng) {
  KRONLAB_REQUIRE(!wu.empty() && !ww.empty(), "weights must be non-empty");
  double total = 0.0;
  for (const double w : wu) {
    KRONLAB_REQUIRE(w >= 0.0, "weights must be non-negative");
    total += w;
  }
  double total_w = 0.0;
  for (const double w : ww) {
    KRONLAB_REQUIRE(w >= 0.0, "weights must be non-negative");
    total_w += w;
  }
  KRONLAB_REQUIRE(total > 0.0 && total_w > 0.0, "weights must not all be 0");
  const double norm = std::max(total, total_w);
  const auto nu = static_cast<index_t>(wu.size());
  const auto nw = static_cast<index_t>(ww.size());
  EdgeList edges;
  for (index_t u = 0; u < nu; ++u) {
    for (index_t w = 0; w < nw; ++w) {
      const double p = std::min(
          1.0, wu[static_cast<std::size_t>(u)] *
                   ww[static_cast<std::size_t>(w)] / norm);
      if (rng.bernoulli(p)) edges.emplace_back(u, nu + w);
    }
  }
  return graph::from_undirected_edges(nu + nw, edges);
}

Adjacency planted_community_bipartite(const PlantedCommunity& pc, Rng& rng) {
  KRONLAB_REQUIRE(pc.nu >= 1 && pc.nw >= 1, "sides must be non-empty");
  KRONLAB_REQUIRE(pc.r >= 0 && pc.r <= pc.nu, "community R size out of range");
  KRONLAB_REQUIRE(pc.t >= 0 && pc.t <= pc.nw, "community T size out of range");
  KRONLAB_REQUIRE(pc.p_in >= 0.0 && pc.p_in <= 1.0, "p_in out of range");
  KRONLAB_REQUIRE(pc.p_out >= 0.0 && pc.p_out <= 1.0, "p_out out of range");
  EdgeList edges;
  for (index_t u = 0; u < pc.nu; ++u) {
    for (index_t w = 0; w < pc.nw; ++w) {
      const bool inside = (u < pc.r) && (w < pc.t);
      if (rng.bernoulli(inside ? pc.p_in : pc.p_out)) {
        edges.emplace_back(u, pc.nu + w);
      }
    }
  }
  return graph::from_undirected_edges(pc.nu + pc.nw, edges);
}

Adjacency random_nonbipartite_connected(index_t n, count_t m, Rng& rng) {
  KRONLAB_REQUIRE(n >= 3, "need n >= 3 for an odd cycle");
  KRONLAB_REQUIRE(m >= n + 2, "need m >= n+2 edges (tree + full triangle)");
  KRONLAB_REQUIRE(m <= n * (n - 1) / 2, "edge count exceeds complete graph");
  std::unordered_set<std::uint64_t> seen;
  EdgeList edges;
  const auto add = [&](index_t i, index_t j) {
    if (i == j) return false;
    if (i > j) std::swap(i, j);
    if (!seen.insert(pack(i, j, n)).second) return false;
    edges.emplace_back(i, j);
    return true;
  };
  // Random recursive spanning tree.
  for (index_t v = 1; v < n; ++v) add(v, rng.uniform(0, v - 1));
  // Force a triangle on the first tree edge's endpoints plus vertex 2.
  add(0, 1);
  add(1, 2);
  add(0, 2);
  while (static_cast<count_t>(edges.size()) < m) {
    add(rng.uniform(0, n - 1), rng.uniform(0, n - 1));
  }
  number_hubs_last(edges, n, {{0, n}});
  return graph::from_undirected_edges(n, edges);
}

} // namespace kronlab::gen
