#include "kronlab/graph/butterflies.hpp"

#include <algorithm>
#include <span>
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

/// Per-worker credit images of a zeroed result array: worker 0 (the
/// calling thread) credits the result itself, and only workers 1..p−1 get
/// a private image, added into the result by fold().
class CreditImages {
public:
  explicit CreditImages(std::span<count_t> out)
      : out_(out), extra_(global_pool().size()) {}

  count_t* operator()(std::size_t id) {
    if (id == 0) return out_.data();
    extra_[id].assign(out_.size(), 0);
    return extra_[id].data();
  }

  void fold() {
    parallel_for_range(
        0, static_cast<index_t>(out_.size()), [&](index_t lo, index_t hi) {
          for (const auto& p : extra_) {
            if (p.empty()) continue; // worker 0, or a worker that never ran
            for (auto q = static_cast<std::size_t>(lo);
                 q < static_cast<std::size_t>(hi); ++q) {
              out_[q] += p[q];
            }
          }
        });
  }

private:
  std::span<count_t> out_;
  std::vector<std::vector<count_t>> extra_;
};

} // namespace

grb::Vector<count_t> vertex_butterflies(const Adjacency& a) {
  require_simple(a, "vertex_butterflies");
  KRONLAB_KERNEL("graph/vertex_butterflies");
  const index_t n = a.nrows();
  // Row i fills c[k] from the wedges i–j–k whose apex i is the largest id
  // and credits each 4-cycle with largest vertex i, middles j, j' and
  // opposite vertex k to all four: i gets Σ_k C(c[k], 2) (the fill's
  // return), k gets C(c[k], 2) as the sum of the counts before each of its
  // bumps, and a replay of the same wedges gives middle j the c[k] − 1
  // other middles of each wedge i–j–k.
  grb::Vector<count_t> s(n, 0);
  CreditImages images(s.data());
  for_each_wedge_row(
      n, 0, n, images, [&](count_t* part, WedgeTable& t, index_t i) {
        const count_t pairs =
            t.fill(csr_rows(a), i,
                   [part](index_t k, count_t prev) { part[k] += prev; });
        // No pair with two middles: every middle credit below would be 0.
        if (pairs == 0) return;
        part[i] += pairs;
        for (const index_t j : a.row_cols(i)) {
          if (j >= i) break;
          count_t own = 0;
          for (const index_t k : a.row_cols(j)) {
            if (k >= i) break;
            own += t[k] - 1; // wedge i–j–k itself put k in the table
          }
          part[j] += own;
        }
      });
  images.fold();
  return s;
}

grb::Csr<count_t> edge_butterflies(const Adjacency& a) {
  require_simple(a, "edge_butterflies");
  KRONLAB_KERNEL("graph/edge_butterflies");
  const index_t n = a.nrows();
  const auto& rp = a.row_ptr();
  // The counts ride on a's pattern; the values are zeroed on the pool, so
  // their pages are first touched there.
  grb::Array<count_t> vals(static_cast<std::size_t>(a.nnz()));
  parallel_for_range(0, a.nnz(), [&](index_t lo, index_t hi) {
    std::fill(vals.begin() + lo, vals.begin() + hi, count_t{0});
  });

  // Pass A (the engine) builds c[k] over the wedges i–j–k whose apex i
  // is the largest id; pass B replays the same wedges and credits the
  // c − 1 4-cycles that close wedge i–j–k (each has i as its largest
  // vertex) to both of its edges: entry (i, j) of row i and entry (j, k)
  // of row j.  Row j is shared across many i, so each worker credits its
  // own nnz-sized image, summed at the end.
  CreditImages images(vals);
  for_each_wedge_row(
      n, 0, n, images, [&](count_t* part, WedgeTable& t, index_t i) {
        // No pair with two middles: every credit below would be 0.
        if (t.fill(csr_rows(a), i) == 0) return;
        const auto cols = a.row_cols(i);
        const auto base = static_cast<std::size_t>(rp[i]);
        for (std::size_t e = 0; e < cols.size(); ++e) {
          const index_t j = cols[e];
          if (j >= i) break;
          const auto jcols = a.row_cols(j);
          const auto jbase = static_cast<std::size_t>(rp[j]);
          count_t own = 0;
          for (std::size_t f = 0; f < jcols.size(); ++f) {
            const index_t k = jcols[f];
            if (k >= i) break;
            // Wedge i–j–k itself put k in the table, so c[k] ≥ 1.
            const count_t c = t[k] - 1;
            own += c;
            part[jbase + f] += c;
          }
          part[base + e] += own;
        }
      });
  images.fold();

  // Each 4-cycle credited each of its edges once, in one of the edge's
  // two mirror slots; the count of edge {i, j} is their sum.  Row j folds
  // its lower entries (j, i < j) with their mirrors (i, j), so every
  // unordered edge is folded by exactly one row.
  parallel_for(0, n, [&](index_t j) {
    const auto cols = a.row_cols(j);
    const auto base = static_cast<std::size_t>(rp[j]);
    for (std::size_t e = 0; e < cols.size() && cols[e] < j; ++e) {
      const index_t i = cols[e];
      const auto icols = a.row_cols(i);
      const auto mirror =
          static_cast<std::size_t>(rp[i]) +
          static_cast<std::size_t>(
              std::lower_bound(icols.begin(), icols.end(), j) -
              icols.begin());
      const count_t v = vals[base + e] + vals[mirror];
      vals[base + e] = v;
      vals[mirror] = v;
    }
  });
  return {a, std::move(vals)};
}

grb::Vector<count_t> vertex_butterflies_reference(const Adjacency& a) {
  require_simple(a, "vertex_butterflies_reference");
  KRONLAB_KERNEL("graph/vertex_butterflies_reference");
  grb::Vector<count_t> s(a.nrows(), 0);
  parallel_for_range_scratch(
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
  grb::Array<count_t> vals(static_cast<std::size_t>(a.nnz()));
  const auto& rp = a.row_ptr();
  parallel_for_range_scratch(
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
  return {a, std::move(vals)};
}

count_t global_butterflies(const Adjacency& a) {
  require_simple(a, "global_butterflies");
  KRONLAB_KERNEL("graph/global_butterflies");
  // Each 4-cycle is seen once, from its largest id.
  return largest_id_c4_sum(a.nrows(), 0, a.nrows(), csr_rows(a));
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
  grb::Array<count_t> vals(static_cast<std::size_t>(a.nnz()));
  const auto& rp = a.row_ptr();
  for (index_t i = 0; i < n; ++i) {
    const auto cols = a.row_cols(i);
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
  return {a, std::move(vals)};
}

} // namespace kronlab::graph
