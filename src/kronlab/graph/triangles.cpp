#include "kronlab/graph/triangles.hpp"

#include <algorithm>

#include "kronlab/common/error.hpp"
#include "kronlab/grb/coo.hpp"
#include "kronlab/grb/ops.hpp"
#include "kronlab/obs/stats.hpp"
#include "kronlab/parallel/parallel_for.hpp"

namespace kronlab::graph {

namespace {

count_t sorted_intersection_size(std::span<const index_t> a,
                                 std::span<const index_t> b) {
  count_t n = 0;
  std::size_t ia = 0, ib = 0;
  while (ia < a.size() && ib < b.size()) {
    if (a[ia] < b[ib]) {
      ++ia;
    } else if (b[ib] < a[ia]) {
      ++ib;
    } else {
      ++n;
      ++ia;
      ++ib;
    }
  }
  return n;
}

void require_loop_free(const Adjacency& a, const char* where) {
  KRONLAB_REQUIRE(a.nrows() == a.ncols(), "adjacency must be square");
  if (!grb::has_no_self_loops(a)) {
    throw domain_error(std::string(where) +
                       ": adjacency must have no self loops");
  }
}

} // namespace

grb::Csr<count_t> edge_triangles(const Adjacency& a) {
  require_loop_free(a, "edge_triangles");
  KRONLAB_KERNEL("graph/edge_triangles");
  grb::Csr<count_t> out = a;
  auto& vals = out.vals();
  const auto& rp = out.row_ptr();
  // Row cost is quadratic in degree, so hub rows of heavy-tailed factors
  // need the dynamic schedule to avoid serializing behind one chunk.
  parallel_for_dynamic(0, a.nrows(), [&](index_t i) {
    const auto ni = a.row_cols(i);
    const auto cols = out.row_cols(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const index_t j = cols[k];
      vals[static_cast<std::size_t>(rp[static_cast<std::size_t>(i)]) + k] =
          sorted_intersection_size(ni, a.row_cols(j));
    }
  });
  return out;
}

grb::Vector<count_t> vertex_triangles(const Adjacency& a) {
  // t_i = ½ Σ_{j∈N(i)} Δ_ij (each triangle at i is seen via both incident
  // edges).
  const auto et = edge_triangles(a);
  auto sums = grb::reduce_rows(et);
  grb::Vector<count_t> t(a.nrows());
  for (index_t i = 0; i < a.nrows(); ++i) t[i] = sums[i] / 2;
  return t;
}

count_t global_triangles(const Adjacency& a) {
  const auto t = vertex_triangles(a);
  return grb::reduce(t) / 3;
}

} // namespace kronlab::graph
