// Tests for PartitionedStream: disjoint cover, balance, shard output.

#include <gtest/gtest.h>

#include <sstream>
#include <utility>
#include <vector>

#include "kronlab/gen/canonical.hpp"
#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/kron/partition.hpp"
#include "support/kron_reference.hpp"

namespace kronlab::kron {
namespace {

BipartiteKronecker sample() {
  Rng rng(101);
  return BipartiteKronecker::raw(
      gen::random_nonbipartite_connected(9, 20, rng),
      gen::random_bipartite(5, 6, 14, rng));
}

TEST(Partition, RanksCoverRowsDisjointly) {
  const auto kp = sample();
  for (const index_t parts : {1, 2, 3, 5, 8}) {
    const PartitionedStream ps(kp, parts);
    ASSERT_EQ(ps.parts(), parts);
    index_t prev_end = 0;
    for (index_t r = 0; r < parts; ++r) {
      const auto [lo, hi] = ps.owned_left_rows(r);
      EXPECT_EQ(lo, prev_end);
      EXPECT_LE(lo, hi);
      prev_end = hi;
    }
    EXPECT_EQ(prev_end, kp.left().nrows());
  }
}

using Entries = std::vector<std::pair<index_t, index_t>>;

/// Rank `r`'s entries, in order, from for_each_entry_from at `skip`.
Entries rank_entries(const PartitionedStream& ps, index_t r,
                     count_t skip = 0) {
  Entries out;
  ps.for_each_entry_from(
      r, skip, [&](index_t p, index_t q) { out.emplace_back(p, q); });
  return out;
}

TEST(Partition, UnionOfShardsIsTheFullStream) {
  const auto kp = sample();
  const auto ref = test_support::kron_reference(kp.left(), kp.right());
  const Entries full = test_support::entries_of_rows(ref, 0, ref.nrows());

  for (const index_t parts : {2, 4, 7}) {
    const PartitionedStream ps(kp, parts);
    Entries combined;
    for (index_t r = 0; r < parts; ++r) {
      Entries shard;
      ps.for_each_entry(
          r, [&](index_t p, index_t q) { shard.emplace_back(p, q); });
      const auto [plo, phi] = ps.owned_product_rows(r);
      EXPECT_EQ(shard, test_support::entries_of_rows(ref, plo, phi))
          << "rank " << r << " of " << parts;
      EXPECT_EQ(static_cast<count_t>(shard.size()), ps.entries_of(r));
      combined.insert(combined.end(), shard.begin(), shard.end());
    }
    EXPECT_EQ(combined, full);
    EXPECT_EQ(static_cast<count_t>(combined.size()),
              kp.left().nnz() * kp.right().nnz());
  }
}

TEST(Partition, EmptyFactorRowsWalkMatchesReference) {
  const auto kp = test_support::product_with_isolated_vertices();
  const auto ref = test_support::kron_reference(kp.left(), kp.right());
  const PartitionedStream ps(kp, 3);
  for (index_t r = 0; r < 3; ++r) {
    const auto [plo, phi] = ps.owned_product_rows(r);
    const Entries expect = test_support::entries_of_rows(ref, plo, phi);
    ASSERT_EQ(ps.entries_of(r), static_cast<count_t>(expect.size()));
    // Every offset: the empty rows a cursor must step over included.
    for (std::size_t skip = 0; skip <= expect.size(); ++skip) {
      ASSERT_EQ(rank_entries(ps, r, static_cast<count_t>(skip)),
                Entries(expect.begin() + static_cast<std::ptrdiff_t>(skip),
                        expect.end()))
          << "rank " << r << " skip " << skip;
    }
  }
}

TEST(Partition, EntriesRespectOwnedProductRows) {
  const auto kp = sample();
  const PartitionedStream ps(kp, 3);
  for (index_t r = 0; r < 3; ++r) {
    const auto [plo, phi] = ps.owned_product_rows(r);
    ps.for_each_entry(r, [&](index_t p, index_t) {
      EXPECT_GE(p, plo);
      EXPECT_LT(p, phi);
    });
  }
}

TEST(Partition, BalanceIsReasonable) {
  // Entry counts per rank should be within 2x of the mean for a
  // moderately regular factor.
  Rng rng(102);
  const auto kp = BipartiteKronecker::raw(
      gen::random_nonbipartite_connected(40, 120, rng),
      gen::random_bipartite(6, 6, 16, rng));
  const index_t parts = 4;
  const PartitionedStream ps(kp, parts);
  const double mean = static_cast<double>(kp.left().nnz() *
                                          kp.right().nnz()) /
                      static_cast<double>(parts);
  for (index_t r = 0; r < parts; ++r) {
    EXPECT_LT(static_cast<double>(ps.entries_of(r)), 2.0 * mean);
  }
}

TEST(Partition, MorePartsThanRowsDegradesGracefully) {
  const auto kp = BipartiteKronecker::raw(gen::path_graph(3),
                                          gen::path_graph(3));
  const PartitionedStream ps(kp, 10);
  count_t total = 0;
  for (index_t r = 0; r < 10; ++r) total += ps.entries_of(r);
  EXPECT_EQ(total, kp.left().nnz() * kp.right().nnz());
}

TEST(Partition, ShardOutputFormat) {
  const auto kp = sample();
  const PartitionedStream ps(kp, 2);
  std::ostringstream out;
  ps.write_shard(1, out);
  std::istringstream in(out.str());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header.rfind("% shard 1/2", 0), 0u);
  count_t lines = 0;
  index_t p, q;
  const auto [plo, phi] = ps.owned_product_rows(1);
  while (in >> p >> q) {
    EXPECT_GT(p, plo); // 1-based ids
    EXPECT_LE(p, phi);
    ++lines;
  }
  EXPECT_EQ(lines, ps.entries_of(1));
}

TEST(Partition, RejectsBadArguments) {
  const auto kp = sample();
  EXPECT_THROW(PartitionedStream(kp, 0), invalid_argument);
  const PartitionedStream ps(kp, 2);
  EXPECT_THROW((void)ps.owned_left_rows(2), invalid_argument);
  EXPECT_THROW((void)ps.owned_left_rows(-1), invalid_argument);
}

} // namespace
} // namespace kronlab::kron
