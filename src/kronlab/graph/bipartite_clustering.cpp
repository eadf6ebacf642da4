#include "kronlab/graph/bipartite_clustering.hpp"

#include "kronlab/common/error.hpp"
#include "kronlab/graph/bipartite.hpp"
#include "kronlab/graph/butterflies.hpp"
#include "kronlab/grb/ops.hpp"
#include "kronlab/kron/ground_truth.hpp"
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

} // namespace

count_t three_paths(const Adjacency& a) {
  require_bipartite_simple(a, "three_paths");
  KRONLAB_KERNEL("graph/three_paths");
  const auto d = degrees(a);
  const count_t directed = parallel_reduce<count_t>(
      0, a.nrows(), 0,
      [&](index_t i) {
        count_t acc = 0;
        for (const index_t j : a.row_cols(i)) {
          acc += (d[i] - 1) * (d[j] - 1);
        }
        return acc;
      },
      [](count_t x, count_t y) { return x + y; });
  return directed / 2;
}

double robins_alexander_cc(const Adjacency& a) {
  const count_t p3 = three_paths(a);
  if (p3 == 0) return 0.0;
  return 4.0 * static_cast<double>(global_butterflies(a)) /
         static_cast<double>(p3);
}

grb::Vector<double> local_closure(const Adjacency& a) {
  require_bipartite_simple(a, "local_closure");
  KRONLAB_KERNEL("graph/local_closure");
  const auto d = degrees(a);
  const auto s = vertex_butterflies(a);
  grb::Vector<double> out(a.nrows(), 0.0);
  parallel_for(0, a.nrows(), [&](index_t v) {
    // 3-paths with v interior: pick the other interior j ∈ N(v); the path
    // is x–v–j–y with x ∈ N(v)\{j}, y ∈ N(j)\{v}.
    count_t paths = 0;
    for (const index_t j : a.row_cols(v)) {
      paths += (d[v] - 1) * (d[j] - 1);
    }
    if (paths > 0) {
      // Each 4-cycle at v closes exactly two interior-v 3-paths.
      out[v] = 2.0 * static_cast<double>(s[v]) /
               static_cast<double>(paths);
    }
  });
  return out;
}

} // namespace kronlab::graph

namespace kronlab::kron {

count_t product_three_paths(const BipartiteKronecker& kp) {
  const auto& m = kp.left();
  const auto& b = kp.right();
  if (!graph::is_bipartite(b)) {
    throw domain_error(
        "product_three_paths: right factor must be bipartite so the "
        "product has no triangles");
  }
  const auto d_m = grb::reduce_rows(m);
  const auto d_b = grb::reduce_rows(b);
  const count_t quad_m = grb::dot(d_m, grb::mxv(m, d_m)); // d_MᵗM d_M
  const count_t quad_b = grb::dot(d_b, grb::mxv(b, d_b));
  const count_t sumsq_m = grb::dot(d_m, d_m);
  const count_t sumsq_b = grb::dot(d_b, d_b);
  const count_t directed =
      quad_m * quad_b - 2 * sumsq_m * sumsq_b + m.nnz() * b.nnz();
  KRONLAB_DBG_ASSERT(directed % 2 == 0, "3-path count must be even");
  return directed / 2;
}

double product_robins_alexander_cc(const BipartiteKronecker& kp) {
  const count_t p3 = product_three_paths(kp);
  if (p3 == 0) return 0.0;
  return 4.0 * static_cast<double>(global_squares(kp)) /
         static_cast<double>(p3);
}

} // namespace kronlab::kron
