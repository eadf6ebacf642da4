#include "kronlab/graph/blocked.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "kronlab/common/error.hpp"
#include "kronlab/grb/ops.hpp"
#include "kronlab/parallel/metrics.hpp"
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

/// Blocked wedge accumulator: dense 32-bit counters over relabeled ids
/// [0, block), open-addressing hash for the tail.  A wedge count is at
/// most min(d_i, d_k) < n, so 32 bits suffice for any factor this library
/// materializes (products beyond 2^32 vertices are never counted
/// directly).
class WedgeAccumulator {
public:
  explicit WedgeAccumulator(index_t n)
      : block_(std::min(n, wedge_block_entries)),
        dense_(static_cast<std::size_t>(block_), 0) {}

  void add(index_t k) {
    if (k < block_) {
      auto& slot = dense_[static_cast<std::size_t>(k)];
      if (slot == 0) touched_dense_.push_back(k);
      ++slot;
    } else {
      add_tail(k);
    }
  }

  [[nodiscard]] count_t get(index_t k) const {
    if (k < block_) {
      return static_cast<count_t>(dense_[static_cast<std::size_t>(k)]);
    }
    if (tail_keys_.empty()) return 0;
    const std::size_t mask = tail_keys_.size() - 1;
    std::size_t slot = hash_of(k) & mask;
    while (tail_keys_[slot] != empty_key) {
      if (tail_keys_[slot] == k) {
        return static_cast<count_t>(tail_vals_[slot]);
      }
      slot = (slot + 1) & mask;
    }
    return 0;
  }

  /// Visit every nonzero (endpoint, count) pair, then zero the table.
  template <typename Use>
  void drain(Use&& use) {
    for (const index_t k : touched_dense_) {
      auto& slot = dense_[static_cast<std::size_t>(k)];
      use(k, static_cast<count_t>(slot));
      slot = 0;
    }
    touched_dense_.clear();
    for (const std::size_t s : touched_tail_) {
      use(tail_keys_[s], static_cast<count_t>(tail_vals_[s]));
      tail_keys_[s] = empty_key;
      tail_vals_[s] = 0;
    }
    touched_tail_.clear();
  }

  /// Zero the table without visiting (edge kernel's per-row reset).
  void clear() {
    drain([](index_t, count_t) {});
  }

  [[nodiscard]] bool empty() const {
    return touched_dense_.empty() && touched_tail_.empty();
  }

private:
  static constexpr index_t empty_key = -1;

  [[nodiscard]] static std::size_t hash_of(index_t k) {
    // Fibonacci hashing; keys are ≥ block_ so low bits alone are biased.
    return static_cast<std::size_t>(
        static_cast<std::uint64_t>(k) * 0x9e3779b97f4a7c15ull >> 32);
  }

  void add_tail(index_t k) {
    if (tail_keys_.empty()) rehash(1024);
    // Grow at 2/3 load so probe chains stay short.
    if (3 * (touched_tail_.size() + 1) > 2 * tail_keys_.size()) {
      rehash(tail_keys_.size() * 2);
    }
    const std::size_t mask = tail_keys_.size() - 1;
    std::size_t slot = hash_of(k) & mask;
    while (tail_keys_[slot] != empty_key && tail_keys_[slot] != k) {
      slot = (slot + 1) & mask;
    }
    if (tail_keys_[slot] == empty_key) {
      tail_keys_[slot] = k;
      tail_vals_[slot] = 0;
      touched_tail_.push_back(slot);
    }
    ++tail_vals_[slot];
  }

  void rehash(std::size_t capacity) {
    std::vector<index_t> old_keys = std::move(tail_keys_);
    std::vector<std::uint32_t> old_vals = std::move(tail_vals_);
    std::vector<std::size_t> old_touched = std::move(touched_tail_);
    tail_keys_.assign(capacity, empty_key);
    tail_vals_.assign(capacity, 0);
    touched_tail_.clear();
    touched_tail_.reserve(capacity);
    const std::size_t mask = capacity - 1;
    for (const std::size_t s : old_touched) {
      std::size_t slot = hash_of(old_keys[s]) & mask;
      while (tail_keys_[slot] != empty_key) slot = (slot + 1) & mask;
      tail_keys_[slot] = old_keys[s];
      tail_vals_[slot] = old_vals[s];
      touched_tail_.push_back(slot);
    }
  }

  index_t block_;
  std::vector<std::uint32_t> dense_;  ///< counts for ids < block_
  std::vector<index_t> touched_dense_;
  std::vector<index_t> tail_keys_;    ///< open addressing, power-of-two
  std::vector<std::uint32_t> tail_vals_;
  std::vector<std::size_t> touched_tail_; ///< occupied slots, for drain
};

} // namespace

DegreeOrder::DegreeOrder(const Adjacency& a, bool with_entry_map) {
  metrics::KernelScope scope("graph/degree_order");
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
  const auto& arp = a.row_ptr();
  if (!with_entry_map) {
    parallel_for_range_dynamic(
        0, n,
        [&](index_t lo, index_t hi) {
          for (index_t r = lo; r < hi; ++r) {
            const auto cols = a.row_cols(orig[static_cast<std::size_t>(r)]);
            index_t* out =
                col_idx.data() + row_ptr[static_cast<std::size_t>(r)];
            for (std::size_t e = 0; e < cols.size(); ++e) {
              out[e] = rank[static_cast<std::size_t>(cols[e])];
            }
            std::sort(out, out + cols.size());
          }
        },
        global_pool(), grain);
  } else {
    // Sorting (rank, original offset) pairs carries each entry's offset
    // in row orig[r] along, so entry_map needs no search or mirror sweep.
    // Ranks within a row are distinct, so the pair order is the rank order.
    entry_map.resize(nnz);
    using Entry = std::pair<index_t, offset_t>;
    parallel_for_range_dynamic_scratch(
        0, n, [](std::size_t) { return std::vector<Entry>(); },
        [&](std::vector<Entry>& row, index_t lo, index_t hi) {
          for (index_t r = lo; r < hi; ++r) {
            const index_t u = orig[static_cast<std::size_t>(r)];
            const auto cols = a.row_cols(u);
            const offset_t base = arp[static_cast<std::size_t>(u)];
            row.resize(cols.size());
            for (std::size_t e = 0; e < cols.size(); ++e) {
              row[e] = {rank[static_cast<std::size_t>(cols[e])],
                        base + static_cast<offset_t>(e)};
            }
            std::sort(row.begin(), row.end());
            const auto out =
                static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(r)]);
            for (std::size_t e = 0; e < row.size(); ++e) {
              col_idx[out + e] = row[e].first;
              entry_map[out + e] = row[e].second;
            }
          }
        },
        global_pool(), grain);
  }
  relabeled = Adjacency(n, n, std::move(row_ptr), std::move(col_idx),
                        std::vector<count_t>(nnz, 1));
}

grb::Vector<count_t> vertex_butterflies_blocked(const Adjacency& a) {
  require_simple(a, "vertex_butterflies_blocked");
  metrics::KernelScope scope("graph/vertex_butterflies_blocked");
  const index_t n = a.nrows();
  grb::Vector<count_t> out(n, 0);
  if (n == 0) return out;
  const DegreeOrder ord(a);
  const Adjacency& g = ord.relabeled;

  // Per-worker partial per-vertex sums (in rank space): each unordered
  // endpoint pair {i, k} is visited once, from the higher-rank (lower
  // degree) side, and credits both endpoints.
  struct Scratch {
    WedgeAccumulator acc;
    std::vector<count_t>* partial;
  };
  std::vector<std::vector<count_t>> partials(global_pool().size());
  parallel_for_range_dynamic_scratch(
      0, n,
      [&](std::size_t id) {
        partials[id].assign(static_cast<std::size_t>(n), 0);
        return Scratch{WedgeAccumulator(n), &partials[id]};
      },
      [&](Scratch& ws, index_t lo, index_t hi) {
        auto& partial = *ws.partial;
        for (index_t i = lo; i < hi; ++i) {
          for (const index_t j : g.row_cols(i)) {
            for (const index_t k : g.row_cols(j)) {
              if (k >= i) break; // row sorted: rest is higher-rank pairs
              ws.acc.add(k);
            }
          }
          count_t own = 0;
          ws.acc.drain([&](index_t k, count_t c) {
            const count_t pairs = c * (c - 1) / 2;
            own += pairs;
            partial[static_cast<std::size_t>(k)] += pairs;
          });
          partial[static_cast<std::size_t>(i)] += own;
        }
      });

  parallel_for_dynamic(0, n, [&](index_t r) {
    count_t acc = 0;
    for (const auto& p : partials) {
      if (!p.empty()) acc += p[static_cast<std::size_t>(r)];
    }
    out[ord.orig[static_cast<std::size_t>(r)]] = acc;
  });
  return out;
}

grb::Csr<count_t> edge_butterflies_blocked(const Adjacency& a) {
  require_simple(a, "edge_butterflies_blocked");
  metrics::KernelScope scope("graph/edge_butterflies_blocked");
  grb::Csr<count_t> out = a;
  if (a.nrows() == 0 || a.nnz() == 0) return out;
  const DegreeOrder ord(a, /*with_entry_map=*/true);
  const Adjacency& g = ord.relabeled;
  const auto& grp = g.row_ptr();
  const index_t n = g.nrows();

  // Phase 1: rank-halved pair enumeration, the same work-halving the
  // vertex kernel uses.  Each endpoint pair {i, k} is materialized once,
  // from its higher-rank side i: pass A builds cnt[k] = |N(i) ∩ N(k)|
  // scanning only the sorted k < i prefix of each N(j) (j ranges over all
  // of N(i), so the counts are the full intersections), then pass B
  // replays the identical — now cache-warm — wedge prefix and credits the
  // (c − 1) butterflies pair {i, k} contributes through wedge i–j–k to
  // both of the wedge's edges: entry (i, j) of row i and entry (j, k) of
  // row j, stored-entry offsets known directly from the row walks.  Each
  // undirected edge thus accumulates across its two mirror slots — phase 2
  // folds them.  Row j is shared across many i, so workers accumulate
  // into private images of rvals, reduced once at the end.
  std::vector<count_t> rvals(static_cast<std::size_t>(g.nnz()), 0);
  {
    metrics::KernelScope phase1("graph/edge_blocked_phase1");
    struct Scratch {
      WedgeAccumulator acc;
      std::vector<count_t>* rpart;
    };
    std::vector<std::vector<count_t>> partials(global_pool().size());
    parallel_for_range_dynamic_scratch(
        0, n,
        [&](std::size_t id) {
          partials[id].assign(static_cast<std::size_t>(g.nnz()), 0);
          return Scratch{WedgeAccumulator(n), &partials[id]};
        },
        [&](Scratch& ws, index_t lo, index_t hi) {
          auto& rpart = *ws.rpart;
          for (index_t i = lo; i < hi; ++i) {
            const auto cols = g.row_cols(i);
            for (const index_t j : cols) {
              for (const index_t k : g.row_cols(j)) {
                if (k >= i) break; // sorted row: rest pairs with ranks ≥ i
                ws.acc.add(k);
              }
            }
            if (ws.acc.empty()) continue; // no pair has i as upper end
            const auto base = static_cast<std::size_t>(grp[i]);
            for (std::size_t e = 0; e < cols.size(); ++e) {
              const index_t j = cols[e];
              const auto jcols = g.row_cols(j);
              const auto jbase = static_cast<std::size_t>(grp[j]);
              count_t own = 0;
              for (std::size_t f = 0; f < jcols.size(); ++f) {
                const index_t k = jcols[f];
                if (k >= i) break;
                // k was added in pass A through this very wedge, so
                // cnt[k] ≥ 1 and the credit is never negative.
                const count_t c = ws.acc.get(k) - 1;
                own += c;
                rpart[jbase + f] += c;
              }
              rpart[base + e] += own;
            }
            ws.acc.clear();
          }
        });
    parallel_for_range_dynamic(
        0, static_cast<index_t>(g.nnz()), [&](index_t lo, index_t hi) {
          for (const auto& p : partials) {
            if (p.empty()) continue;
            for (index_t q = lo; q < hi; ++q) {
              rvals[static_cast<std::size_t>(q)] +=
                  p[static_cast<std::size_t>(q)];
            }
          }
        });
  }

  // Phase 2: fold each edge's two mirror slots with one O(nnz) cursor
  // sweep — for each row i, upper entries (i, j) appear in ascending j,
  // and sweeping rows j in ascending order visits each i's mirrors in the
  // same order, so a per-row cursor pairs them without searching.
  {
    metrics::KernelScope phase2("graph/edge_blocked_phase2");
    std::vector<offset_t> cursor(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) {
      const auto cols = g.row_cols(i);
      const auto it = std::upper_bound(cols.begin(), cols.end(), i);
      cursor[static_cast<std::size_t>(i)] =
          grp[static_cast<std::size_t>(i)] +
          static_cast<offset_t>(it - cols.begin());
    }
    for (index_t j = 0; j < n; ++j) {
      const auto cols = g.row_cols(j);
      const auto base = static_cast<std::size_t>(grp[j]);
      for (std::size_t e = 0; e < cols.size(); ++e) {
        const index_t i = cols[e];
        if (i >= j) break;
        const auto mirror = static_cast<std::size_t>(
            cursor[static_cast<std::size_t>(i)]++);
        // Every 4-cycle through edge {i, j} was credited twice in phase
        // 1 — once per diagonal pair it contains — with the two credits
        // split across the mirror slots, so the folded sum is exactly
        // 2·◇_ij (always even).
        const count_t v = (rvals[base + e] + rvals[mirror]) / 2;
        rvals[base + e] = v;
        rvals[mirror] = v;
      }
    }
  }

  // Phase 3: scatter rank-space values back to the original structure.
  metrics::KernelScope phase3("graph/edge_blocked_phase3");
  auto& vals = out.vals();
  parallel_for_range_dynamic(
      0, static_cast<index_t>(g.nnz()), [&](index_t lo, index_t hi) {
        for (index_t p = lo; p < hi; ++p) {
          vals[static_cast<std::size_t>(
              ord.entry_map[static_cast<std::size_t>(p)])] =
              rvals[static_cast<std::size_t>(p)];
        }
      });
  return out;
}

} // namespace kronlab::graph
