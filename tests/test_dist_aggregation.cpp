// Tests for the per-destination message aggregator (dist/aggregator.hpp)
// and its integration with the row-granular ghost-row exchange.
//
// Covers, per the aggregation design contract:
//   * wire format: singles ship raw, batches frame/split losslessly,
//     malformed batches are rejected with typed errors, and no single-bit
//     corruption of a batch or a raw frame escapes as anything but a
//     typed error or in-bounds frame views;
//   * flush policy determinism: capacity flushes split a frame stream
//     into predictable batches at Aggregator::kCapacityWords;
//   * counter accounting: frames_enqueued == rows_coalesced +
//     single_flushes;
//   * retry idempotence: under drop/duplicate/delay fault plans a retried
//     or duplicated batch or raw single frame delivers each ghost row
//     exactly once (the distributed count stays bit-identical to the
//     factored truth);
//   * deferred DONE: a rank that needs no ghost row announces DONE while
//     its peers are still trading rows, and the count stays exact;
//   * a forged ROWS frame (columns out of range or out of order) is
//     rejected with the typed "malformed ROWS frame" error, and a
//     well-formed ROWS frame from a peer that does not own the row is
//     absorbed as a duplicate;
//   * a many-rank chaos soak with every rank enqueueing, flushing, and
//     draining concurrently — the TSan target for this subsystem.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "kronlab/common/error.hpp"
#include "kronlab/dist/aggregator.hpp"
#include "kronlab/dist/comm.hpp"
#include "kronlab/dist/sharded.hpp"
#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/graph/butterflies.hpp"
#include "kronlab/graph/graph.hpp"
#include "kronlab/grb/coo.hpp"
#include "kronlab/kron/ground_truth.hpp"

namespace kronlab::dist {
namespace {

using std::chrono::milliseconds;

constexpr int kTag = 42;

/// A frame of exactly `words` words: [1, id, 0...].
Message frame_of(std::size_t words, word_t id) {
  Message f(words, 0);
  f[0] = 1;
  f[1] = id;
  return f;
}

/// Aggregator::split, with each frame copied out for comparison.
std::vector<Message> split_copy(const Message& wire) {
  std::vector<Aggregator::Frame> views;
  Aggregator::split(wire, views);
  std::vector<Message> frames;
  for (const auto v : views) frames.emplace_back(v.begin(), v.end());
  return frames;
}

/// Receive one wire message through `agg`: its sender and frames.
std::optional<std::pair<index_t, std::vector<Message>>> recv_copy(
    Aggregator& agg, milliseconds timeout) {
  const auto from = agg.recv(timeout);
  if (!from) return std::nullopt;
  std::vector<Message> frames;
  for (const auto v : agg.frames()) frames.emplace_back(v.begin(), v.end());
  return std::make_pair(*from, std::move(frames));
}

double fault_rate_scale() {
  const char* env = std::getenv("KRONLAB_FAULT_RATE");
  if (env != nullptr && std::string(env) == "high") return 5.0;
  return 1.0;
}

RetryConfig fast_retry() {
  RetryConfig cfg;
  cfg.timeout = milliseconds(2);
  cfg.max_retries = 2;
  cfg.max_backoff = milliseconds(8);
  return cfg;
}

kron::BipartiteKronecker sample_product(std::uint64_t seed) {
  Rng rng(seed);
  return kron::BipartiteKronecker::raw(
      gen::random_nonbipartite_connected(16, 40, rng),
      gen::random_bipartite(5, 5, 12, rng));
}

// ---------------------------------------------------------------------------
// Wire format.

TEST(AggregatorWire, SingleFrameShipsRawOnTheWire) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      Aggregator agg(comm, kTag);
      agg.append(1, {5, 1, 2, 3});
      agg.flush(1);
      EXPECT_EQ(agg.stats().single_flushes, 1);
      EXPECT_EQ(agg.stats().batches_sent, 0);
    } else {
      // The receiver sees the frame byte-identical to an unaggregated
      // send — no batch header for a buffer of one.
      const auto msg = comm.recv(0, kTag);
      EXPECT_FALSE(Aggregator::is_batch(msg));
      EXPECT_EQ(msg, (Message{5, 1, 2, 3}));
    }
  });
}

TEST(AggregatorWire, BatchRoundTripsLosslesslyInOrder) {
  run(2, [](Comm& comm) {
    const std::vector<Message> frames = {
        {7, 0, 11}, {7, 1, 22, 23}, {7, 2}, {9, 0, 44, 45, 46}};
    if (comm.rank() == 0) {
      Aggregator agg(comm, kTag);
      for (const auto& f : frames) agg.append(1, f);
      agg.flush_all();
      EXPECT_EQ(agg.stats().batches_sent, 1);
      EXPECT_EQ(agg.stats().rows_coalesced, 4);
    } else {
      const auto raw = comm.recv(0, kTag);
      ASSERT_TRUE(Aggregator::is_batch(raw));
      const auto got = split_copy(raw);
      ASSERT_EQ(got.size(), frames.size());
      for (std::size_t i = 0; i < frames.size(); ++i) {
        EXPECT_EQ(got[i], frames[i]);
      }
    }
  });
}

TEST(AggregatorWire, RecvFramesUnpacksBatchesAndWrapsSingles) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      Aggregator agg(comm, kTag);
      agg.append(1, {1, 10});
      agg.append(1, {1, 20});
      agg.flush(1); // batch of two
      agg.append(1, {1, 30});
      agg.flush(1); // raw single
    } else {
      Aggregator agg(comm, kTag);
      const auto batch = recv_copy(agg, milliseconds(2000));
      ASSERT_TRUE(batch.has_value());
      EXPECT_EQ(batch->first, 0);
      ASSERT_EQ(batch->second.size(), 2u);
      EXPECT_EQ(batch->second[0], (Message{1, 10}));
      EXPECT_EQ(batch->second[1], (Message{1, 20}));
      const auto single = recv_copy(agg, milliseconds(2000));
      ASSERT_TRUE(single.has_value());
      ASSERT_EQ(single->second.size(), 1u);
      EXPECT_EQ(single->second[0], (Message{1, 30}));
    }
  });
}

TEST(AggregatorWire, MalformedBatchesAreRejected) {
  const word_t magic = Aggregator::kBatchMagic;
  // Header truncated.
  EXPECT_THROW((void)split_copy({magic}), invalid_argument);
  // Negative frame count.
  EXPECT_THROW((void)split_copy({magic, -1}), invalid_argument);
  // Frame length runs past the end.
  EXPECT_THROW((void)split_copy({magic, 1, 5, 1, 2}),
               invalid_argument);
  // Fewer frames than the count promises.
  EXPECT_THROW((void)split_copy({magic, 2, 1, 7}),
               invalid_argument);
  // Trailing words after the last frame.
  EXPECT_THROW((void)split_copy({magic, 1, 1, 7, 99}),
               invalid_argument);
  // A well-formed batch of one empty + one 2-word frame parses.
  const auto frames = split_copy({magic, 2, 0, 2, 4, 5});
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_TRUE(frames[0].empty());
  EXPECT_EQ(frames[1], (Message{4, 5}));
}

TEST(AggregatorWire, BitFlipsThrowTypedErrorsOrYieldInBoundsViews) {
  // Wire bytes are untrusted.  Flip every bit of a 3-frame batch and of a
  // raw frame: split must either throw invalid_argument or return views
  // that lie inside the message — never over-allocate from a corrupted
  // count word, read past the end, or throw anything else.
  const word_t magic = Aggregator::kBatchMagic;
  const std::vector<Message> wires = {
      {magic, 3, 2, 4, 5, 1, 6, 1, 7}, // 9 words: frames {4,5}, {6}, {7}
      {5, 1, 2, 3},                    // raw frame
  };
  for (const Message& wire : wires) {
    count_t rejected = 0;
    for (std::size_t w = 0; w < wire.size(); ++w) {
      for (int bit = 0; bit < 64; ++bit) {
        Message flipped = wire;
        flipped[w] = static_cast<word_t>(static_cast<std::uint64_t>(
                                              flipped[w]) ^
                                          (std::uint64_t{1} << bit));
        std::vector<Aggregator::Frame> views;
        try {
          Aggregator::split(flipped, views);
        } catch (const invalid_argument&) {
          ++rejected;
          continue;
        } catch (const std::exception& e) {
          ADD_FAILURE() << "word " << w << " bit " << bit
                        << " threw a non-typed error: " << e.what();
          continue;
        }
        std::size_t words = 0;
        for (const auto v : views) {
          EXPECT_GE(v.data(), flipped.data());
          EXPECT_LE(v.data() + v.size(), flipped.data() + flipped.size());
          words += v.size();
        }
        EXPECT_LE(words, flipped.size());
      }
    }
    // The batch's framing words reject most flips; a raw frame has none.
    if (Aggregator::is_batch(wire)) {
      EXPECT_GT(rejected, 0);
    } else {
      EXPECT_EQ(rejected, 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Flush policy.

TEST(AggregatorFlush, CapacityFlushesAreDeterministic) {
  // Quarter-capacity frames: exactly four fill a buffer, so twelve split
  // into three full batches with nothing left over.
  constexpr std::size_t kWords = Aggregator::kCapacityWords / 4;
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      Aggregator agg(comm, kTag);
      for (word_t i = 0; i < 12; ++i) agg.append(1, frame_of(kWords, i));
      EXPECT_EQ(agg.stats().capacity_flushes, 3);
      EXPECT_EQ(agg.stats().batches_sent, 3);
      EXPECT_EQ(agg.stats().rows_coalesced, 12);
      EXPECT_EQ(agg.stats().single_flushes, 0);
    } else {
      Aggregator agg(comm, kTag);
      for (word_t b = 0; b < 3; ++b) {
        const auto got = recv_copy(agg, milliseconds(2000));
        ASSERT_TRUE(got.has_value());
        ASSERT_EQ(got->second.size(), 4u);
        for (word_t k = 0; k < 4; ++k) {
          EXPECT_EQ(got->second[static_cast<std::size_t>(k)],
                    frame_of(kWords, 4 * b + k));
        }
      }
    }
  });
}

TEST(AggregatorFlush, OversizeFrameFlushesBufferThenItself) {
  const Message oversize = frame_of(Aggregator::kCapacityWords + 1, 2);
  run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      Aggregator agg(comm, kTag);
      agg.append(1, {1, 7});
      // Larger than capacity on its own: the buffered frame flushes as a
      // single, then the oversize frame flushes as its own single.
      agg.append(1, oversize);
      EXPECT_EQ(agg.stats().single_flushes, 2);
      EXPECT_EQ(agg.stats().batches_sent, 0);
      EXPECT_EQ(agg.stats().capacity_flushes, 2);
    } else {
      EXPECT_EQ(comm.recv(0, kTag), (Message{1, 7}));
      EXPECT_EQ(comm.recv(0, kTag), oversize);
    }
  });
}

TEST(AggregatorFlush, DestructorFlushesAsManual) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      Aggregator agg(comm, kTag);
      agg.append(1, {1, 10});
      agg.append(1, {1, 20});
      // No explicit flush: the destructor drains the buffer.
    } else {
      Aggregator agg(comm, kTag);
      const auto got = recv_copy(agg, milliseconds(2000));
      ASSERT_TRUE(got.has_value());
      ASSERT_EQ(got->second.size(), 2u);
    }
  });
}

// ---------------------------------------------------------------------------
// Counter accounting.

TEST(AggregatorCounters, EnqueuedEqualsCoalescedPlusSingles) {
  // Frames of 0.4x capacity: two fit, a third overflows, so nine frames
  // make four capacity-flushed pairs and leave one behind for flush_all.
  constexpr std::size_t kWords = 2 * Aggregator::kCapacityWords / 5;
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      Aggregator agg(comm, kTag);
      // A mix of capacity flushes, a manual batch, and a manual single.
      for (word_t i = 0; i < 9; ++i) agg.append(1, frame_of(kWords, i));
      agg.flush_all();
      agg.append(1, {1, 100});
      agg.append(1, {1, 101});
      agg.flush_all();
      const auto& st = agg.stats();
      EXPECT_EQ(st.frames_enqueued, 11);
      EXPECT_EQ(st.capacity_flushes, 4);
      EXPECT_EQ(st.frames_enqueued, st.rows_coalesced + st.single_flushes);
      EXPECT_EQ(st.capacity_flushes + st.manual_flushes,
                st.batches_sent + st.single_flushes);
    } else {
      Aggregator agg(comm, kTag);
      count_t frames = 0;
      while (frames < 11) {
        const auto got = recv_copy(agg, milliseconds(2000));
        ASSERT_TRUE(got.has_value());
        frames += static_cast<count_t>(got->second.size());
      }
      EXPECT_EQ(frames, 11);
    }
  });
}

TEST(AggregatorCounters, StatsMergeSumsEveryField) {
  AggregatorStats a;
  a.frames_enqueued = 10;
  a.rows_coalesced = 7;
  a.single_flushes = 3;
  a.batches_sent = 2;
  a.capacity_flushes = 1;
  a.manual_flushes = 3;
  AggregatorStats b = a;
  b.merge(a);
  EXPECT_EQ(b.frames_enqueued, 20);
  EXPECT_EQ(b.rows_coalesced, 14);
  EXPECT_EQ(b.single_flushes, 6);
  EXPECT_EQ(b.batches_sent, 4);
  EXPECT_EQ(b.capacity_flushes, 2);
  EXPECT_EQ(b.manual_flushes, 6);
}

// ---------------------------------------------------------------------------
// Exchange integration: retry/dedup semantics through the aggregator.

TEST(AggregatedExchange, AggregatedAndPerRowCountsAgree) {
  const auto kp = sample_product(31);
  const count_t expect = kron::global_squares(kp);
  const kron::PartitionedStream ps(kp, 4);
  run(4, [&](Comm& comm) {
    const auto shard = generate_shard(kp, ps, comm.rank());
    ExchangeStats stats;
    EXPECT_EQ(distributed_global_butterflies(comm, shard, {}, &stats),
              expect);
    EXPECT_EQ(stats.agg.frames_enqueued,
              stats.agg.rows_coalesced + stats.agg.single_flushes);
    // Ghost-row traffic at 4 ranks must actually coalesce.
    EXPECT_GT(stats.agg.rows_coalesced, 0);
    EXPECT_GT(stats.agg.batches_sent, 0);
  });
}

TEST(AggregatedExchange, DuplicatedBatchesDeliverEachRowOnce) {
  // Heavy duplication: whole batched wire messages are delivered twice,
  // and the per-row dedup (the waiting table on the requester, the
  // reply-state table on the responder) must absorb every copy — an exact
  // count proves no row was double-merged into the ghost arena.
  const auto kp = sample_product(32);
  const count_t expect = kron::global_squares(kp);
  const double s = fault_rate_scale();
  FaultPlan plan;
  plan.seed = 77;
  plan.duplicate = std::min(0.3 * s, 0.6);
  const kron::PartitionedStream ps(kp, 4);
  run(4, plan, [&](Comm& comm) {
    const auto shard = generate_shard(kp, ps, comm.rank());
    ExchangeStats stats;
    EXPECT_EQ(distributed_global_butterflies(comm, shard, {}, &stats),
              expect);
    if (comm.rank() == 0) {
      EXPECT_GT(comm.fault_stats().duplicated, 0);
    }
  });
}

TEST(AggregatedExchange, RetriedBatchesAreDedupedUnderDrops) {
  // Drops force request retries; a retried request narrows to the rows
  // still missing, and re-served rows are absorbed as duplicates.  A
  // flush of one buffered frame (a lone ACK, a one-row retry) ships raw,
  // a larger one as a batch: the summed stats show both kinds of wire
  // message ran under faults, and the exact count shows both stayed
  // exact.
  const auto kp = sample_product(33);
  const count_t expect = kron::global_squares(kp);
  const double s = fault_rate_scale();
  FaultPlan plan;
  plan.seed = 78;
  plan.drop = std::min(0.15 * s, 0.3);
  plan.duplicate = std::min(0.15 * s, 0.3);
  plan.delay = std::min(0.15 * s, 0.3);
  const kron::PartitionedStream ps(kp, 4);
  std::mutex mu;
  AggregatorStats total;
  run(4, plan, [&](Comm& comm) {
    const auto shard = generate_shard(kp, ps, comm.rank());
    ExchangeStats stats;
    EXPECT_EQ(distributed_global_butterflies(comm, shard, {}, &stats),
              expect);
    {
      const std::lock_guard<std::mutex> lock(mu);
      total.merge(stats.agg);
    }
    if (comm.rank() == 0) {
      const auto faults = comm.fault_stats();
      EXPECT_GT(faults.dropped + faults.duplicated + faults.delayed, 0);
    }
  });
  EXPECT_GT(total.single_flushes, 0);
  EXPECT_GT(total.batches_sent, 0);
}

TEST(AggregatedExchange, IdleRanksEarlyDoneWaitsForBusyPeers) {
  // Rank 0 owns a K_{4,4} component on its own, so it requests no ghost
  // row and no peer requests one of its rows: after the empty handshakes
  // it is quiescent and sends DONE while ranks 1–3 are still trading rows
  // of the other component (the mailbox serves low ranks first, so rank
  // 0's handshakes are handled ahead of that traffic).  Peers read that
  // DONE only once they are quiescent themselves; the count must still be
  // exact, fault-free and under drops.
  constexpr index_t kIdle = 8;
  std::vector<std::pair<index_t, index_t>> edges;
  for (index_t u = 0; u < 4; ++u) {
    for (index_t v = 4; v < kIdle; ++v) edges.emplace_back(u, v);
  }
  Rng rng(35);
  const auto busy = gen::random_bipartite(150, 150, 1500, rng);
  for (index_t u = 0; u < busy.nrows(); ++u) {
    for (const index_t v : busy.row_cols(u)) {
      if (u < v) edges.emplace_back(kIdle + u, kIdle + v);
    }
  }
  const index_t n = kIdle + busy.nrows();
  const auto g = graph::from_undirected_edges(n, edges);
  const count_t expect = graph::global_butterflies(g);
  ASSERT_GT(expect, 36); // K_{4,4} alone has C(4,2)^2 = 36

  const index_t third = (n - kIdle) / 3;
  const std::vector<index_t> begins = {0, kIdle, kIdle + third,
                                       kIdle + 2 * third, n};
  const auto shard_of = [&](index_t rank) {
    Shard shard;
    shard.n = n;
    shard.row_begin = begins[static_cast<std::size_t>(rank)];
    shard.row_end = begins[static_cast<std::size_t>(rank) + 1];
    grb::Coo<count_t> coo(shard.row_end - shard.row_begin, n);
    for (index_t u = shard.row_begin; u < shard.row_end; ++u) {
      for (const index_t v : g.row_cols(u)) {
        coo.push(u - shard.row_begin, v, 1);
      }
    }
    shard.rows = grb::Csr<count_t>::from_coo(coo);
    return shard;
  };

  // A fixed 10% drop, not scaled by KRONLAB_FAULT_RATE: this case is
  // about when DONE is read, not about the 8-retry budget's design limit
  // (a frame lost on all 9 attempts, DESIGN.md §7), which the drop soaks
  // above cover.
  FaultPlan drops;
  drops.seed = 79;
  drops.drop = 0.1;
  for (const bool faulty : {false, true}) {
    const auto body = [&](Comm& comm) {
      const auto shard = shard_of(comm.rank());
      EXPECT_EQ(distributed_global_butterflies(comm, shard), expect)
          << "rank " << comm.rank() << " faulty " << faulty;
    };
    if (faulty) {
      run(4, drops, body);
    } else {
      run(4, body);
    }
  }
}

TEST(AggregatedExchange, RetryExhaustionStillThrowsTimeout) {
  const auto kp = sample_product(34);
  const kron::PartitionedStream ps(kp, 2);
  FaultPlan plan;
  plan.drop = 1.0; // no application message ever arrives
  EXPECT_THROW(
      run(2, plan,
          [&](Comm& comm) {
            const auto shard = generate_shard(kp, ps, comm.rank());
            distributed_global_butterflies(comm, shard, fast_retry());
          }),
      timeout_error);
}

TEST(AggregatedExchange, ForgedRowsFramesRaiseTypedError) {
  // A peer's ROWS frame is untrusted input: the counting phase indexes an
  // n-sized table with its columns and stops each row scan at the first
  // id ≥ the counted vertex, so columns outside [0, n) or not strictly
  // increasing must be rejected before they reach the ghost cache.
  const auto kp = sample_product(36);
  const kron::PartitionedStream ps(kp, 2);
  const index_t n = kp.num_vertices();
  // Exchange wire format: [epoch, ROWS = 1, row, degree, cols...] on tag 10.
  constexpr int kExchTag = 10;
  constexpr word_t kRows = 1;
  const std::vector<Message> forged = {{-1, 3}, {2, n}, {5, 3}, {4, 4}};
  for (const Message& cols : forged) {
    EXPECT_THROW(
        run(2,
            [&](Comm& comm) {
              const auto shard = generate_shard(kp, ps, comm.rank());
              if (comm.rank() == 0) {
                (void)distributed_global_butterflies(comm, shard,
                                                     fast_retry());
                return;
              }
              // Rank 1 joins the membership agreement, then answers with
              // a forged row instead of serving the exchange.
              const word_t epoch = comm.next_epoch();
              const auto members = comm.live_ranks();
              (void)comm.allgather(shard.row_begin, members);
              (void)comm.allgather(shard.row_end, members);
              Message frame = {epoch, kRows, shard.row_begin,
                               static_cast<word_t>(cols.size())};
              frame.insert(frame.end(), cols.begin(), cols.end());
              comm.send(0, kExchTag, std::move(frame));
            }),
        invalid_argument)
        << "columns " << cols[0] << ", " << cols[1];
  }
}

TEST(AggregatedExchange, WrongPeerRowsFrameIsAbsorbed) {
  // A ROWS frame counts only if it comes from the peer the row was
  // requested from, its owner.  Ranks fetch rows from lower ranks only, so
  // rank 2 requests rows of both rank 0 and rank 1.  Before joining the
  // exchange, rank 0 sends rank 2 a well-formed current-epoch ROWS frame
  // for a row rank 1 owns and rank 2 needs, with wrong columns: rank 2
  // must absorb it as a duplicate reply, wait for rank 1's row, and every
  // rank's count must stay exact.
  const auto kp = sample_product(37);
  const count_t expect = kron::global_squares(kp);
  const kron::PartitionedStream ps(kp, 3);
  const index_t n = kp.num_vertices();
  constexpr int kExchTag = 10; // exchange wire format, as above
  constexpr word_t kRows = 1;
  const auto shard2 = generate_shard(kp, ps, 2);
  const auto [begin1, end1] = ps.owned_product_rows(1);
  index_t target = -1; // a row of rank 1's that rank 2 requests
  for (const index_t j : shard2.rows.col_idx()) {
    if (j >= begin1 && j < end1) {
      target = j;
      break;
    }
  }
  ASSERT_GE(target, 0) << "rank 2 needs no row of rank 1's";
  run(3, [&](Comm& comm) {
    const auto shard = generate_shard(kp, ps, comm.rank());
    if (comm.rank() == 0) {
      // The first exchange's epoch, which the rank has not advanced yet.
      // The columns are sorted ids in [0, n), so only the sender is wrong.
      const word_t epoch = 1;
      comm.send(2, kExchTag, {epoch, kRows, target, 2, 0, n - 1});
    }
    ExchangeStats stats;
    EXPECT_EQ(distributed_global_butterflies(comm, shard, {}, &stats),
              expect)
        << "rank " << comm.rank();
    if (comm.rank() == 2) {
      EXPECT_GE(stats.dup_replies, 1);
    }
  });
}

// ---------------------------------------------------------------------------
// Chaos soak: every rank enqueues to every other rank while draining its
// own tag — the TSan target exercising concurrent aggregator instances
// over one Comm fabric.

TEST(AggregatorChaos, AllRanksExchangeThroughAggregatorsConcurrently) {
  const index_t ranks = 6;
  const word_t per_peer = 200;
  run(ranks, [&](Comm& comm) {
    Aggregator agg(comm, kTag);
    std::vector<count_t> got_from(static_cast<std::size_t>(ranks), 0);
    word_t payload_sum = 0;
    const auto drain = [&](milliseconds timeout) -> bool {
      const auto got = recv_copy(agg, timeout);
      if (!got) return false;
      for (const auto& f : got->second) {
        EXPECT_EQ(f.size(), 3u);
        if (f.size() != 3u) continue;
        EXPECT_EQ(f[1], got->first);
        ++got_from[static_cast<std::size_t>(f[1])];
        payload_sum += f[2];
      }
      return true;
    };
    for (word_t i = 0; i < per_peer; ++i) {
      for (index_t r = 0; r < ranks; ++r) {
        if (r == comm.rank()) continue;
        agg.append(r, {1, comm.rank(), i});
      }
      if (i % 16 == 15) agg.flush_all();
      drain(milliseconds(0));
    }
    agg.flush_all();
    const count_t want =
        static_cast<count_t>(ranks - 1) * static_cast<count_t>(per_peer);
    count_t total = 0;
    for (;;) {
      total = 0;
      for (const count_t c : got_from) total += c;
      if (total >= want) break;
      const bool progressed = drain(milliseconds(2000));
      ASSERT_TRUE(progressed)
          << "stalled at " << total << "/" << want << " frames";
    }
    EXPECT_EQ(total, want);
    for (index_t r = 0; r < ranks; ++r) {
      EXPECT_EQ(got_from[static_cast<std::size_t>(r)],
                r == comm.rank() ? 0 : static_cast<count_t>(per_peer));
    }
    // Every peer sent Σ i = per_peer*(per_peer-1)/2.
    EXPECT_EQ(payload_sum, static_cast<word_t>(ranks - 1) * per_peer *
                               (per_peer - 1) / 2);
    const auto& st = agg.stats();
    EXPECT_EQ(st.frames_enqueued, want);
    EXPECT_EQ(st.frames_enqueued, st.rows_coalesced + st.single_flushes);
    EXPECT_GT(st.rows_coalesced, 0);
    comm.barrier(); // nobody tears down while peers still drain
  });
}

} // namespace
} // namespace kronlab::dist
