// kronlab/kron/partition.hpp
//
// Partitioned generation — the shared-memory stand-in for the paper's
// stated future work ("implement this style of generator in a distributed
// version of GraphBLAS").
//
// The product's row space factors as (i, k) pairs, so contiguous blocks of
// left-factor rows induce a clean P-way partition of C's rows: rank r owns
// rows [cut_r, cut_{r+1}) of M, i.e. rows [cut_r·n_B, cut_{r+1}·n_B) of C.
// Each rank streams exactly its own edges from the two (tiny, replicated)
// factors — no communication, deterministic output, balanced by stored
// entries of M.  A rank's stream is grb::for_each_kron_entry over its
// product rows (grb/kron.hpp), which also owns the resume cursor's skip
// arithmetic.  This is precisely how the distributed generator would lay
// out work per MPI rank; here the "ranks" are thread-pool workers or
// separate output files.

#pragma once

#include <iosfwd>
#include <vector>

#include "kronlab/grb/kron.hpp"
#include "kronlab/kron/product.hpp"
#include "kronlab/kron/stream.hpp"

namespace kronlab::kron {

/// A P-way row partition of a Kronecker product.
class PartitionedStream {
public:
  /// Split into `parts` ranks, balancing stored entries of the left
  /// factor (hence edges of C) across ranks.
  PartitionedStream(const BipartiteKronecker& kp, index_t parts);

  [[nodiscard]] index_t parts() const {
    return static_cast<index_t>(cuts_.size()) - 1;
  }

  /// Left-factor row range [begin, end) owned by `rank`.
  [[nodiscard]] std::pair<index_t, index_t> owned_left_rows(
      index_t rank) const;

  /// Product row range owned by `rank`.
  [[nodiscard]] std::pair<index_t, index_t> owned_product_rows(
      index_t rank) const;

  /// Number of stored entries rank `rank` will emit.
  [[nodiscard]] count_t entries_of(index_t rank) const;

  /// Visit fn(p, q) for every stored entry whose row is owned by `rank`,
  /// in row-major order.  The union over ranks is exactly the full entry
  /// stream; ranges are disjoint.
  template <typename Fn>
  void for_each_entry(index_t rank, Fn&& fn) const {
    for_each_entry_from(rank, 0, fn);
  }

  /// As for_each_entry, but skip the first `skip` entries of the rank's
  /// stream arithmetically — O(owned rows), not O(skipped entries) — so a
  /// durable resume (io/stream_gen.hpp) fast-forwards to its cursor
  /// without regenerating the committed prefix.
  template <typename Fn>
  void for_each_entry_from(index_t rank, count_t skip, Fn&& fn) const {
    KRONLAB_REQUIRE(skip >= 0 && skip <= entries_of(rank),
                    "resume cursor outside the rank's entry range");
    const auto [plo, phi] = owned_product_rows(rank);
    grb::for_each_kron_entry(
        kp_->left(), kp_->right(), plo, phi, skip,
        [&](const grb::KronEntry& e) { fn(e.p, e.q); });
  }

  /// Stream rank `rank`'s entries as "p q" lines (1-based) with a rank
  /// header — one shard of a distributed edge-list dump.
  void write_shard(index_t rank, std::ostream& out) const;

private:
  const BipartiteKronecker* kp_;
  std::vector<index_t> cuts_; ///< parts+1 left-row cut points
};

} // namespace kronlab::kron
