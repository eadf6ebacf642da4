// kronlab/graph/blocked.hpp
//
// Degree-ordered relabeling of an undirected adjacency.
//
// No counter uses it any more: the wedge engine (graph/wedges.hpp) orders
// its wedges by vertex id, which needs no degree information.
// DegreeOrder stays only because perfbench's `graph.degree_order_ms` layer
// probe constructs it.

#pragma once

#include <vector>

#include "kronlab/graph/graph.hpp"

namespace kronlab::graph {

/// Degree-ordered relabeling of an undirected adjacency: `rank[v]` is v's
/// position in non-increasing degree order (ties broken by original id),
/// `orig[r]` inverts it, and `relabeled` is the adjacency re-indexed by
/// rank with rows sorted.  Relabeling is a similarity permutation, so every
/// count computed on `relabeled` maps back through `orig`.
struct DegreeOrder {
  std::vector<index_t> rank; ///< original id → degree rank
  std::vector<index_t> orig; ///< degree rank → original id
  Adjacency relabeled;       ///< adjacency over ranks, rows sorted

  explicit DegreeOrder(const Adjacency& a);
};

} // namespace kronlab::graph
