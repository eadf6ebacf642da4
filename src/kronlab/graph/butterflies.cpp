#include "kronlab/graph/butterflies.hpp"

#include <algorithm>
#include <vector>

#include "kronlab/common/error.hpp"
#include "kronlab/graph/wedges.hpp"
#include "kronlab/grb/ops.hpp"
#include "kronlab/obs/stats.hpp"
#include "kronlab/parallel/parallel_for.hpp"

namespace kronlab::graph {

namespace {

void require_simple(const Adjacency& a, const char* where) {
  KRONLAB_REQUIRE(a.nrows() == a.ncols(), "adjacency must be square");
  if (!grb::has_no_self_loops(a)) {
    throw domain_error(std::string(where) +
                       ": adjacency must have no self loops");
  }
}

/// Add the per-worker partial vectors into `out`, in parallel over slots.
void sum_partials(const std::vector<std::vector<count_t>>& partials,
                  std::vector<count_t>& out) {
  parallel_for_range_dynamic(
      0, static_cast<index_t>(out.size()), [&](index_t lo, index_t hi) {
        for (const auto& p : partials) {
          if (p.empty()) continue; // worker never ran
          for (auto q = static_cast<std::size_t>(lo);
               q < static_cast<std::size_t>(hi); ++q) {
            out[q] += p[q];
          }
        }
      });
}

} // namespace

grb::Vector<count_t> vertex_butterflies(const Adjacency& a) {
  require_simple(a, "vertex_butterflies");
  KRONLAB_KERNEL("graph/vertex_butterflies");
  const index_t n = a.nrows();
  // Pair {i, k} (k < i) is seen once, from i, and credits both endpoints.
  std::vector<std::vector<count_t>> partials(global_pool().size());
  for_each_halved_wedge_table(
      n, 0, n, csr_rows(a),
      [&](std::size_t id) {
        partials[id].assign(static_cast<std::size_t>(n), 0);
        return &partials[id];
      },
      [](std::vector<count_t>* part, index_t i, const HalvedWedgeTable& t) {
        count_t own = 0;
        for (const index_t k : t.touched()) {
          const count_t c = t[k];
          const count_t pairs = c * (c - 1) / 2;
          own += pairs;
          (*part)[static_cast<std::size_t>(k)] += pairs;
        }
        (*part)[static_cast<std::size_t>(i)] += own;
      });
  grb::Vector<count_t> s(n, 0);
  sum_partials(partials, s.data());
  return s;
}

grb::Csr<count_t> edge_butterflies(const Adjacency& a) {
  require_simple(a, "edge_butterflies");
  KRONLAB_KERNEL("graph/edge_butterflies");
  const index_t n = a.nrows();
  const auto& rp = a.row_ptr();
  grb::Csr<count_t> out = a;
  auto& vals = out.vals();
  std::fill(vals.begin(), vals.end(), count_t{0});

  // Pass A (the engine) builds c[k] for the pairs {i, k < i}; pass B
  // replays the same wedge prefix and credits the c − 1 butterflies pair
  // {i, k} closes through wedge i–j–k to both of its edges: entry (i, j)
  // of row i and entry (j, k) of row j.  Row j is shared across many i, so
  // workers credit private nnz-sized images, summed at the end.
  const auto nnz = static_cast<std::size_t>(a.nnz());
  std::vector<std::vector<count_t>> partials(global_pool().size());
  for_each_halved_wedge_table(
      n, 0, n, csr_rows(a),
      [&](std::size_t id) {
        partials[id].assign(nnz, 0);
        return &partials[id];
      },
      [&](std::vector<count_t>* part, index_t i, const HalvedWedgeTable& t) {
        if (t.touched().empty()) return; // no pair has i as upper end
        const auto cols = a.row_cols(i);
        const auto base = static_cast<std::size_t>(rp[i]);
        for (std::size_t e = 0; e < cols.size(); ++e) {
          const index_t j = cols[e];
          const auto jcols = a.row_cols(j);
          const auto jbase = static_cast<std::size_t>(rp[j]);
          count_t own = 0;
          for (std::size_t f = 0; f < jcols.size(); ++f) {
            const index_t k = jcols[f];
            if (k >= i) break;
            // Wedge i–j–k itself put k in the table, so c[k] ≥ 1.
            const count_t c = t[k] - 1;
            own += c;
            (*part)[jbase + f] += c;
          }
          (*part)[base + e] += own;
        }
      });
  sum_partials(partials, vals);

  // Every 4-cycle through edge {i, j} was credited twice — once per
  // diagonal pair it contains — split across the edge's two mirror slots.
  // Fold (slot + mirror)/2 into both with one cursor sweep: for each row
  // i, upper entries (i, j) appear in ascending j, and sweeping rows j in
  // ascending order visits i's mirrors in that same order.
  std::vector<offset_t> cursor(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    const auto cols = a.row_cols(i);
    cursor[static_cast<std::size_t>(i)] =
        rp[i] + (std::upper_bound(cols.begin(), cols.end(), i) - cols.begin());
  }
  for (index_t j = 0; j < n; ++j) {
    const auto cols = a.row_cols(j);
    const auto base = static_cast<std::size_t>(rp[j]);
    for (std::size_t e = 0; e < cols.size(); ++e) {
      const index_t i = cols[e];
      if (i >= j) break;
      const auto mirror =
          static_cast<std::size_t>(cursor[static_cast<std::size_t>(i)]++);
      const count_t v = (vals[base + e] + vals[mirror]) / 2;
      vals[base + e] = v;
      vals[mirror] = v;
    }
  }
  return out;
}

grb::Vector<count_t> vertex_butterflies_reference(const Adjacency& a) {
  require_simple(a, "vertex_butterflies_reference");
  KRONLAB_KERNEL("graph/vertex_butterflies_reference");
  grb::Vector<count_t> s(a.nrows(), 0);
  parallel_for_range_dynamic_scratch(
      0, a.nrows(), [&](std::size_t) { return VertexWedgeTable(a.nrows()); },
      [&](VertexWedgeTable& t, index_t lo, index_t hi) {
        for (index_t i = lo; i < hi; ++i) {
          t.fill(a, i);
          count_t acc = 0;
          for (const index_t k : t.touched) {
            const count_t c = t.cnt[static_cast<std::size_t>(k)];
            acc += c * (c - 1) / 2;
          }
          s[i] = acc;
          t.clear();
        }
      });
  return s;
}

grb::Csr<count_t> edge_butterflies_reference(const Adjacency& a) {
  require_simple(a, "edge_butterflies_reference");
  KRONLAB_KERNEL("graph/edge_butterflies_reference");
  grb::Csr<count_t> out = a;
  auto& vals = out.vals();
  const auto& rp = out.row_ptr();
  parallel_for_range_dynamic_scratch(
      0, a.nrows(), [&](std::size_t) { return VertexWedgeTable(a.nrows()); },
      [&](VertexWedgeTable& t, index_t lo, index_t hi) {
        for (index_t i = lo; i < hi; ++i) {
          t.fill(a, i);
          const auto cols = a.row_cols(i);
          for (std::size_t e = 0; e < cols.size(); ++e) {
            const index_t j = cols[e];
            count_t acc = 0;
            for (const index_t k : a.row_cols(j)) {
              if (k == i) continue;
              acc += t.cnt[static_cast<std::size_t>(k)] - 1;
            }
            vals[static_cast<std::size_t>(rp[static_cast<std::size_t>(i)]) +
                 e] = acc;
          }
          t.clear();
        }
      });
  return out;
}

count_t global_butterflies(const Adjacency& a) {
  require_simple(a, "global_butterflies");
  KRONLAB_KERNEL("graph/global_butterflies");
  // Each 4-cycle has two diagonal pairs, each seen once.
  return halved_pair_sum(a.nrows(), 0, a.nrows(), csr_rows(a)) / 2;
}

count_t global_butterflies_naive(const Adjacency& a) {
  require_simple(a, "global_butterflies_naive");
  const index_t n = a.nrows();
  KRONLAB_REQUIRE(n <= 128, "naive counter is for tiny graphs only");
  count_t total = 0;
  // Count each 4-cycle exactly once: anchor at its smallest vertex p0 and
  // kill the reflection symmetry by requiring p1 < p3.
  for (index_t p0 = 0; p0 < n; ++p0) {
    for (const index_t p1 : a.row_cols(p0)) {
      if (p1 <= p0) continue;
      for (const index_t p2 : a.row_cols(p1)) {
        if (p2 <= p0) continue; // p2 != p0 and p0 minimal
        for (const index_t p3 : a.row_cols(p2)) {
          if (p3 <= p1 || p3 == p2) continue; // p1 < p3, distinctness
          if (a.has(p3, p0)) ++total;
        }
      }
    }
  }
  return total;
}

grb::Vector<count_t> vertex_butterflies_naive(const Adjacency& a) {
  require_simple(a, "vertex_butterflies_naive");
  const index_t n = a.nrows();
  KRONLAB_REQUIRE(n <= 128, "naive counter is for tiny graphs only");
  grb::Vector<count_t> s(n, 0);
  for (index_t p0 = 0; p0 < n; ++p0) {
    for (const index_t p1 : a.row_cols(p0)) {
      for (const index_t p2 : a.row_cols(p1)) {
        if (p2 == p0) continue;
        for (const index_t p3 : a.row_cols(p2)) {
          if (p3 == p1 || p3 == p0) continue;
          if (a.has(p3, p0)) ++s[p0];
        }
      }
    }
  }
  // Each 4-cycle through p0 was traversed in both directions.
  for (index_t i = 0; i < n; ++i) s[i] /= 2;
  return s;
}

grb::Csr<count_t> edge_butterflies_naive(const Adjacency& a) {
  require_simple(a, "edge_butterflies_naive");
  const index_t n = a.nrows();
  KRONLAB_REQUIRE(n <= 128, "naive counter is for tiny graphs only");
  grb::Csr<count_t> out = a;
  auto& vals = out.vals();
  const auto& rp = out.row_ptr();
  for (index_t i = 0; i < n; ++i) {
    const auto cols = out.row_cols(i);
    for (std::size_t e = 0; e < cols.size(); ++e) {
      const index_t j = cols[e];
      count_t c = 0;
      // Squares i–j–x–y–i with all four distinct.
      for (const index_t x : a.row_cols(j)) {
        if (x == i) continue;
        for (const index_t y : a.row_cols(x)) {
          if (y == j || y == i) continue;
          if (a.has(y, i)) ++c;
        }
      }
      vals[static_cast<std::size_t>(rp[static_cast<std::size_t>(i)]) + e] =
          c;
    }
  }
  return out;
}

} // namespace kronlab::graph
