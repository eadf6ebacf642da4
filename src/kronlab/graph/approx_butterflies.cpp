#include "kronlab/graph/approx_butterflies.hpp"

#include <vector>

#include "kronlab/common/error.hpp"
#include "kronlab/graph/butterflies.hpp"
#include "kronlab/grb/ops.hpp"

namespace kronlab::graph {

namespace {

void require_simple(const Adjacency& a, const char* where) {
  KRONLAB_REQUIRE(a.nrows() == a.ncols(), "adjacency must be square");
  if (!grb::has_no_self_loops(a)) {
    throw domain_error(std::string(where) +
                       ": adjacency must have no self loops");
  }
}

count_t sorted_common(std::span<const index_t> x,
                      std::span<const index_t> y) {
  count_t n = 0;
  std::size_t a = 0, b = 0;
  while (a < x.size() && b < y.size()) {
    if (x[a] < y[b]) {
      ++a;
    } else if (y[b] < x[a]) {
      ++b;
    } else {
      ++n;
      ++a;
      ++b;
    }
  }
  return n;
}

} // namespace

ButterflyEstimate approx_butterflies_vertex(const Adjacency& a,
                                            index_t samples, Rng& rng) {
  require_simple(a, "approx_butterflies_vertex");
  KRONLAB_REQUIRE(samples >= 1, "need at least one sample");
  const index_t n = a.nrows();
  if (n == 0) return {0.0, samples};
  VertexWedgeTable scratch(n);
  double acc = 0.0;
  for (index_t t = 0; t < samples; ++t) {
    const index_t v = rng.uniform(0, n - 1);
    scratch.fill(a, v);
    count_t s = 0;
    for (const index_t k : scratch.touched) {
      const count_t c = scratch.cnt[static_cast<std::size_t>(k)];
      s += c * (c - 1) / 2;
    }
    scratch.clear();
    acc += static_cast<double>(s);
  }
  return {acc / static_cast<double>(samples) * static_cast<double>(n) / 4.0,
          samples};
}

ButterflyEstimate approx_butterflies_edge(const Adjacency& a,
                                          index_t samples, Rng& rng) {
  require_simple(a, "approx_butterflies_edge");
  KRONLAB_REQUIRE(samples >= 1, "need at least one sample");
  if (a.nnz() == 0) return {0.0, samples};
  // Entry → row lookup for uniform stored-entry sampling.
  std::vector<index_t> entry_row(static_cast<std::size_t>(a.nnz()));
  {
    std::size_t o = 0;
    for (index_t i = 0; i < a.nrows(); ++i) {
      for (offset_t k = 0; k < a.row_degree(i); ++k) entry_row[o++] = i;
    }
  }
  const double m = static_cast<double>(a.nnz()) / 2.0;
  VertexWedgeTable scratch(a.nrows());
  double acc = 0.0;
  for (index_t t = 0; t < samples; ++t) {
    const auto e = static_cast<std::size_t>(rng.uniform(0, a.nnz() - 1));
    const index_t u = entry_row[e];
    const index_t v = a.col_idx()[e];
    // ◇_uv = Σ_{k∈N(v)\{u}} (|N(u)∩N(k)| − 1).
    scratch.fill(a, u);
    count_t sq = 0;
    for (const index_t k : a.row_cols(v)) {
      if (k == u) continue;
      sq += scratch.cnt[static_cast<std::size_t>(k)] - 1;
    }
    scratch.clear();
    acc += static_cast<double>(sq);
  }
  return {acc / static_cast<double>(samples) * m / 4.0, samples};
}

ButterflyEstimate approx_butterflies_wedge(const Adjacency& a,
                                           index_t samples, Rng& rng) {
  require_simple(a, "approx_butterflies_wedge");
  KRONLAB_REQUIRE(samples >= 1, "need at least one sample");
  const index_t n = a.nrows();
  // Wedge weights per center: C(d_c, 2); cumulative for proportional
  // sampling.
  std::vector<count_t> cum(static_cast<std::size_t>(n) + 1, 0);
  for (index_t c = 0; c < n; ++c) {
    const count_t d = a.row_degree(c);
    cum[static_cast<std::size_t>(c) + 1] =
        cum[static_cast<std::size_t>(c)] + d * (d - 1) / 2;
  }
  const count_t total_wedges = cum.back();
  if (total_wedges == 0) return {0.0, samples};

  double acc = 0.0;
  for (index_t t = 0; t < samples; ++t) {
    // Center proportional to wedge count (binary search on cumulative).
    const auto pick = static_cast<count_t>(
        rng.next_below(static_cast<std::uint64_t>(total_wedges)));
    const auto it = std::upper_bound(cum.begin(), cum.end(), pick);
    const index_t c = static_cast<index_t>(it - cum.begin()) - 1;
    const auto nbrs = a.row_cols(c);
    const auto d = static_cast<index_t>(nbrs.size());
    // Uniform unordered neighbor pair (x, y).
    index_t xi = rng.uniform(0, d - 1);
    index_t yi = rng.uniform(0, d - 2);
    if (yi >= xi) ++yi;
    const index_t x = nbrs[static_cast<std::size_t>(xi)];
    const index_t y = nbrs[static_cast<std::size_t>(yi)];
    // Squares through this wedge: common(x, y) − 1 (c itself is common).
    acc +=
        static_cast<double>(sorted_common(a.row_cols(x), a.row_cols(y)) - 1);
  }
  return {acc / static_cast<double>(samples) *
              static_cast<double>(total_wedges) / 4.0,
          samples};
}

} // namespace kronlab::graph
