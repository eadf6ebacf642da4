// Tests for the simulated distributed runtime and the distributed
// generation + counting pipeline.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <numeric>
#include <vector>

#include "kronlab/dist/comm.hpp"
#include "kronlab/dist/sharded.hpp"
#include "kronlab/gen/canonical.hpp"
#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/graph/butterflies.hpp"
#include "kronlab/io/stream_gen.hpp"
#include "kronlab/kron/ground_truth.hpp"
#include "kronlab/obs/stats.hpp"
#include "support/temp_dir.hpp"

namespace kronlab::dist {
namespace {

TEST(Comm, PointToPointPreservesOrder) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, {1, 2});
      comm.send(1, 7, {3});
      comm.send(1, 8, {99});
    } else {
      EXPECT_EQ(comm.recv(0, 7), (Message{1, 2}));
      // Cross-tag traffic does not disturb per-tag FIFO order.
      EXPECT_EQ(comm.recv(0, 8), (Message{99}));
      EXPECT_EQ(comm.recv(0, 7), (Message{3}));
    }
  });
}

TEST(Comm, AllreduceSumsAcrossRanks) {
  for (const index_t p : {1, 2, 3, 7}) {
    run(p, [p](Comm& comm) {
      const word_t total = comm.allreduce_sum(comm.rank() + 1);
      EXPECT_EQ(total, p * (p + 1) / 2);
    });
  }
}

TEST(Comm, AllgatherCollectsRankValues) {
  run(4, [](Comm& comm) {
    const auto all = comm.allgather(10 * comm.rank());
    EXPECT_EQ(all, (std::vector<word_t>{0, 10, 20, 30}));
  });
}

TEST(Comm, AlltoallRoutesPerRankMessages) {
  run(3, [](Comm& comm) {
    std::vector<Message> out(3);
    for (index_t r = 0; r < 3; ++r) {
      out[static_cast<std::size_t>(r)] = {100 * comm.rank() + r};
    }
    const auto in = comm.alltoall(std::move(out));
    for (index_t r = 0; r < 3; ++r) {
      EXPECT_EQ(in[static_cast<std::size_t>(r)],
                (Message{100 * r + comm.rank()}));
    }
  });
}

TEST(Comm, BarrierSynchronizes) {
  std::atomic<int> phase1{0};
  run(4, [&](Comm& comm) {
    ++phase1;
    comm.barrier();
    // After the barrier every rank must observe all increments.
    EXPECT_EQ(phase1.load(), 4);
  });
}

TEST(Comm, RankExceptionsPropagate) {
  EXPECT_THROW(run(2,
                   [](Comm& comm) {
                     if (comm.rank() == 1) {
                       throw domain_error("rank 1 failed");
                     }
                   }),
               domain_error);
}

TEST(Comm, ValidatesArguments) {
  EXPECT_THROW(run(0, [](Comm&) {}), invalid_argument);
  run(2, [](Comm& comm) {
    EXPECT_THROW(comm.send(5, 0, {}), invalid_argument);
    EXPECT_THROW(comm.recv(-1, 0), invalid_argument);
  });
}

// ---------------------------------------------------------------------------
// Distributed generation + counting.

kron::BipartiteKronecker sample_product(std::uint64_t seed) {
  Rng rng(seed);
  return kron::BipartiteKronecker::raw(
      gen::random_nonbipartite_connected(8, 18, rng),
      gen::random_bipartite(5, 5, 12, rng));
}

TEST(ShardedGeneration, ShardsReassembleTheProduct) {
  const auto kp = sample_product(1);
  const auto c = kp.materialize();
  for (const index_t parts : {1, 2, 3, 5}) {
    const kron::PartitionedStream ps(kp, parts);
    offset_t total_entries = 0;
    for (index_t r = 0; r < parts; ++r) {
      const auto shard = generate_shard(kp, ps, r);
      EXPECT_EQ(shard.n, c.nrows());
      for (index_t lv = 0; lv < shard.rows.nrows(); ++lv) {
        const index_t v = shard.row_begin + lv;
        const auto local_cols = shard.rows.row_cols(lv);
        const auto global_cols = c.row_cols(v);
        ASSERT_EQ(local_cols.size(), global_cols.size()) << "row " << v;
        for (std::size_t k = 0; k < local_cols.size(); ++k) {
          EXPECT_EQ(local_cols[k], global_cols[k]);
        }
      }
      total_entries += shard.rows.nnz();
    }
    EXPECT_EQ(total_entries, c.nnz());
  }
}

TEST(ShardedGeneration, DirectCsrShardsAreSlicesOfTheMaterializedProduct) {
  // generate_shard assembles its CSR straight from the factor degrees and
  // the entry stream; each shard must be bit-identical — row_ptr, col_idx
  // and vals — to its row slice of the materialized product, and so must
  // load_shard's from a durable store of the same partition.
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    const auto kp = sample_product(seed);
    const auto c = kp.materialize();
    for (index_t parts = 1; parts <= 5; ++parts) {
      const kron::PartitionedStream ps(kp, parts);
      const test_support::TempDir dir("dist_load");
      io::StreamGenOptions opt;
      opt.dir = dir.path();
      opt.shards = parts;
      opt.segment_edges = 100; // several segments per shard
      (void)io::generate_durable(io::real_file_ops(), kp, opt);
      for (index_t rank = 0; rank < parts; ++rank) {
        const auto shards = {
            generate_shard(kp, ps, rank),
            load_shard(io::real_file_ops(), dir.path(), kp, ps, rank)};
        for (const auto& shard : shards) {
          const auto lo = static_cast<std::size_t>(shard.row_begin);
          const auto hi = static_cast<std::size_t>(shard.row_end);
          const auto e_lo = c.row_ptr()[lo];
          const auto e_hi = c.row_ptr()[hi];
          grb::Array<offset_t> row_ptr;
          for (std::size_t r = lo; r <= hi; ++r) {
            row_ptr.push_back(c.row_ptr()[r] - e_lo);
          }
          EXPECT_EQ(shard.n, c.nrows());
          EXPECT_EQ(shard.rows.ncols(), c.ncols());
          EXPECT_EQ(shard.rows.row_ptr(), row_ptr)
              << "seed " << seed << " parts " << parts;
          EXPECT_EQ(shard.rows.col_idx(),
                    grb::Array<index_t>(c.col_idx().begin() + e_lo,
                                        c.col_idx().begin() + e_hi));
          EXPECT_EQ(shard.rows.vals(),
                    grb::Array<count_t>(c.vals().begin() + e_lo,
                                        c.vals().begin() + e_hi));
        }
      }
    }
  }
}

class DistCountTest : public ::testing::TestWithParam<int> {};

TEST_P(DistCountTest, DistributedCountMatchesGroundTruth) {
  const auto kp = sample_product(10 + static_cast<std::uint64_t>(GetParam()));
  const count_t expect = kron::global_squares(kp);
  for (const index_t parts : {1, 2, 4}) {
    const kron::PartitionedStream ps(kp, parts);
    run(parts, [&](Comm& comm) {
      const auto shard = generate_shard(kp, ps, comm.rank());
      const count_t counted = distributed_global_butterflies(comm, shard);
      EXPECT_EQ(counted, expect) << "parts=" << parts;
      const count_t truth =
          distributed_ground_truth_squares(comm, kp, ps);
      EXPECT_EQ(truth, expect);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistCountTest, ::testing::Range(0, 6));

TEST(DistCount, AgreesWithSerialWedgeCountOnMaterialized) {
  const auto kp = sample_product(99);
  const auto expect = graph::global_butterflies(kp.materialize());
  const kron::PartitionedStream ps(kp, 3);
  run(3, [&](Comm& comm) {
    const auto shard = generate_shard(kp, ps, comm.rank());
    EXPECT_EQ(distributed_global_butterflies(comm, shard), expect);
  });
}

TEST(DistCount, RanksFetchRowsOnlyFromLowerRanks) {
  // Phase 3 reads a remote row only below the shard's first row, so rank 0
  // requests no row at all.  It sends each peer the empty handshake,
  // serves the rows the higher ranks request, and acks each peer's
  // handshake reply; fetching every column it does not own would add one
  // request per such column on top.
  const auto kp = sample_product(97);
  const index_t parts = 3;
  const kron::PartitionedStream ps(kp, parts);
  std::vector<Shard> shards;
  for (index_t r = 0; r < parts; ++r) {
    shards.push_back(generate_shard(kp, ps, r));
  }
  const index_t end0 = shards[0].row_end;
  // Distinct columns of shard r in [lo, hi).
  const auto distinct_cols = [&](index_t r, index_t lo, index_t hi) {
    std::vector<bool> seen(static_cast<std::size_t>(kp.num_vertices()));
    count_t k = 0;
    for (const index_t j : shards[static_cast<std::size_t>(r)].rows.col_idx()) {
      if (j < lo || j >= hi || seen[static_cast<std::size_t>(j)]) continue;
      seen[static_cast<std::size_t>(j)] = true;
      ++k;
    }
    return k;
  };
  count_t served = 0; // rank 0's rows the higher ranks request
  for (index_t r = 1; r < parts; ++r) served += distinct_cols(r, 0, end0);
  const count_t handshakes = 3 * (parts - 1); // REQ, reply, ack per peer
  ASSERT_GT(distinct_cols(0, end0, kp.num_vertices()), handshakes)
      << "rank 0 has too few higher columns to tell the rules apart";
  // Deadlines far above a fault-free exchange: no retry adds a frame.
  RetryConfig patient;
  patient.timeout = std::chrono::milliseconds(2000);
  patient.max_backoff = std::chrono::milliseconds(2000);
  const count_t expect = kron::global_squares(kp);
  run(parts, [&](Comm& comm) {
    const auto& shard = shards[static_cast<std::size_t>(comm.rank())];
    ExchangeStats stats;
    EXPECT_EQ(distributed_global_butterflies(comm, shard, patient, &stats),
              expect);
    if (comm.rank() == 0) {
      EXPECT_LE(stats.agg.frames_enqueued, served + handshakes);
    }
  });
}

TEST(DistCount, PhaseTimesLandInTheRegistry) {
  // One 4-rank count records each of its three phases per rank: needed-row
  // discovery, the exchange epoch and the wedge count.
  const auto kp = sample_product(98);
  const kron::PartitionedStream ps(kp, 4);
  run(4, [&](Comm& comm) {
    const auto shard = generate_shard(kp, ps, comm.rank());
    (void)distributed_global_butterflies(comm, shard);
  });
  const auto snap = obs::stats_snapshot();
  for (const char* name : {"kernel/dist/needed", "dist/exchange_epoch",
                           "kernel/dist/wedge_count"}) {
    const auto it = snap.histograms.find(name);
    ASSERT_NE(it, snap.histograms.end()) << name;
    EXPECT_GE(it->second.count, 4u) << name;
  }
}

} // namespace
} // namespace kronlab::dist
