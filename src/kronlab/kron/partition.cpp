#include "kronlab/kron/partition.hpp"

#include <ostream>

#include "kronlab/common/error.hpp"

namespace kronlab::kron {

PartitionedStream::PartitionedStream(const BipartiteKronecker& kp,
                                     index_t parts)
    : kp_(&kp) {
  KRONLAB_REQUIRE(parts >= 1, "need at least one partition");
  const auto& m = kp.left();
  // Greedy balanced cuts over M's stored entries: rank r takes rows until
  // it holds ≥ (r+1)/parts of the total.
  cuts_.reserve(static_cast<std::size_t>(parts) + 1);
  cuts_.push_back(0);
  const count_t total = m.nnz();
  index_t row = 0;
  count_t taken = 0;
  for (index_t r = 1; r < parts; ++r) {
    const count_t target = (total * r + parts - 1) / parts;
    while (row < m.nrows() && taken < target) {
      taken += m.row_degree(row);
      ++row;
    }
    cuts_.push_back(row);
  }
  cuts_.push_back(m.nrows());
}

std::pair<index_t, index_t> PartitionedStream::owned_left_rows(
    index_t rank) const {
  KRONLAB_REQUIRE(rank >= 0 && rank < parts(), "rank out of range");
  return {cuts_[static_cast<std::size_t>(rank)],
          cuts_[static_cast<std::size_t>(rank) + 1]};
}

std::pair<index_t, index_t> PartitionedStream::owned_product_rows(
    index_t rank) const {
  const auto [lo, hi] = owned_left_rows(rank);
  const index_t nb = kp_->right().nrows();
  return {lo * nb, hi * nb};
}

count_t PartitionedStream::entries_of(index_t rank) const {
  const auto [plo, phi] = owned_product_rows(rank);
  count_t entries = 0;
  grb::for_each_kron_row(
      kp_->left(), kp_->right(), plo, phi,
      [&](index_t, index_t, index_t, offset_t size) { entries += size; });
  return entries;
}

void PartitionedStream::write_shard(index_t rank, std::ostream& out) const {
  const auto [plo, phi] = owned_product_rows(rank);
  out << "% shard " << rank << '/' << parts() << " rows [" << plo << ','
      << phi << ") entries " << entries_of(rank) << '\n';
  for_each_entry(rank, [&](index_t p, index_t q) {
    out << (p + 1) << ' ' << (q + 1) << '\n';
  });
}

} // namespace kronlab::kron
