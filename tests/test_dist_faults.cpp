// Fault-injection tests for the distributed runtime and the fault-tolerant
// generation + counting pipeline: seeded drop/delay/duplicate plans, rank
// kills at named fault points, deadline receives, retry exhaustion, and
// supervised recovery over the durable store, verified against the
// factored ground truth.
//
// The CI release job re-runs this suite with KRONLAB_FAULT_RATE=high,
// which scales the probabilistic plans up (see fault_rate_scale below);
// every assertion here is rate-independent — the protocols must produce
// bit-identical counts under any plan they survive.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "kronlab/dist/comm.hpp"
#include "kronlab/dist/sharded.hpp"
#include "kronlab/gen/canonical.hpp"
#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/graph/butterflies.hpp"
#include "kronlab/io/stream_gen.hpp"
#include "kronlab/kron/ground_truth.hpp"
#include "support/temp_dir.hpp"

namespace kronlab::dist {
namespace {

using test_support::TempDir;

/// KRONLAB_FAULT_RATE=high (or a numeric factor) scales the probabilistic
/// fault plans — the CI release job uses it to stress the retry budget.
double fault_rate_scale() {
  const char* env = std::getenv("KRONLAB_FAULT_RATE");
  if (!env) return 1.0;
  if (std::string(env) == "high") return 5.0;
  const double v = std::strtod(env, nullptr);
  return v > 0 ? v : 1.0;
}

/// Small retry budget so exhaustion tests finish in milliseconds.
RetryConfig fast_retry() {
  RetryConfig cfg;
  cfg.timeout = std::chrono::milliseconds(2);
  cfg.max_retries = 2;
  cfg.max_backoff = std::chrono::milliseconds(8);
  return cfg;
}

// ---------------------------------------------------------------------------
// FaultPlan mechanics.

TEST(FaultPlan, ValidatesProbabilitiesAndKillRank) {
  FaultPlan plan;
  plan.drop = 0.6;
  plan.duplicate = 0.6;
  EXPECT_THROW(run(2, plan, [](Comm&) {}), invalid_argument);
  FaultPlan bad_kill;
  bad_kill.kill_rank = 5;
  bad_kill.kill_point = "load-segment";
  EXPECT_THROW(run(2, bad_kill, [](Comm&) {}), invalid_argument);
}

TEST(FaultPlan, DropsAreSeededAndDeterministic) {
  const auto survivors = [](std::uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.drop = 0.3;
    std::vector<word_t> got;
    run(2, plan, [&](Comm& comm) {
      constexpr int kMessages = 200;
      if (comm.rank() == 0) {
        for (int i = 0; i < kMessages; ++i) comm.send(1, 1, {i});
        comm.barrier();
      } else {
        comm.barrier(); // all sends delivered (or dropped) by now
        while (const auto m =
                   comm.recv_deadline(0, 1, std::chrono::milliseconds(5))) {
          got.push_back(m->at(0));
        }
        const auto dropped = comm.fault_stats().dropped;
        EXPECT_EQ(static_cast<std::int64_t>(got.size()) + dropped,
                  kMessages);
        EXPECT_GT(dropped, 0);
        EXPECT_LT(dropped, kMessages);
      }
    });
    return got;
  };
  EXPECT_EQ(survivors(7), survivors(7)); // same seed, same drop pattern
  EXPECT_NE(survivors(7), survivors(8));
}

TEST(FaultPlan, DuplicatesAreDeliveredTwice) {
  FaultPlan plan;
  plan.duplicate = 1.0;
  run(2, plan, [](Comm& comm) {
    constexpr int kMessages = 10;
    if (comm.rank() == 0) {
      for (int i = 0; i < kMessages; ++i) comm.send(1, 1, {i});
      comm.barrier();
    } else {
      comm.barrier();
      int received = 0;
      while (comm.recv_deadline(0, 1, std::chrono::milliseconds(5))) {
        ++received;
      }
      EXPECT_EQ(received, 2 * kMessages);
      EXPECT_EQ(comm.fault_stats().duplicated, kMessages);
    }
  });
}

TEST(FaultPlan, CollectivesAreExemptByDefault) {
  FaultPlan plan;
  plan.drop = 1.0; // every application message lost ...
  run(4, plan, [](Comm& comm) {
    // ... yet the collectives (negative tags) still complete and agree.
    EXPECT_EQ(comm.allreduce_sum(comm.rank() + 1), 10);
    EXPECT_EQ(comm.allgather(comm.rank()).size(), 4u);
  });
}

// ---------------------------------------------------------------------------
// Deadline receives and delay (reorder) semantics.

TEST(Comm, RecvDeadlineExpiresWhenEverythingIsDropped) {
  FaultPlan plan;
  plan.drop = 1.0;
  run(2, plan, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 3, {42});
      comm.barrier();
    } else {
      comm.barrier();
      const auto got =
          comm.recv_deadline(0, 3, std::chrono::milliseconds(10));
      EXPECT_FALSE(got.has_value());
      EXPECT_GE(comm.fault_stats().dropped, 1);
    }
  });
}

TEST(Comm, DeadlineExpiryReleasesDelayedMessages) {
  FaultPlan plan;
  plan.delay = 1.0;
  plan.delay_deliveries = 1000; // parked until a deadline flushes it
  run(2, plan, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 3, {42});
      comm.barrier();
    } else {
      comm.barrier();
      // The message is parked as "delayed"; the deadline expiring models
      // the late packet finally arriving, so this receive still succeeds.
      const auto got =
          comm.recv_deadline(0, 3, std::chrono::milliseconds(10));
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, (Message{42}));
      EXPECT_EQ(comm.fault_stats().delayed, 1);
    }
  });
}

TEST(Comm, ZeroTimeoutReceiveIsAPollThatStillReleasesDelayed) {
  // A zero timeout never enters the timed wait, yet an empty queue still
  // releases parked messages exactly as an expired deadline does: the
  // first poll (nothing queued on its tag) flushes the parked message and
  // the second returns it.
  FaultPlan plan;
  plan.delay = 1.0;
  plan.delay_deliveries = 1000; // parked until a receive flushes it
  run(2, plan, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 3, {42});
      comm.barrier();
    } else {
      comm.barrier();
      EXPECT_FALSE(
          comm.recv_deadline(0, 4, std::chrono::milliseconds(0)).has_value());
      const auto got = comm.recv_deadline(0, 3, std::chrono::milliseconds(0));
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, (Message{42}));
      const auto any = comm.recv_any(3, std::chrono::milliseconds(0));
      EXPECT_FALSE(any.has_value());
    }
  });
}

TEST(Comm, RecvAnyServesSendersRoundRobin) {
  // Ranks 0 and 1 each queue three messages for rank 2 before it drains:
  // an any-sender receive must alternate between them rather than drain
  // rank 0's backlog first, or a busy low rank starves the others.
  run(3, [](Comm& comm) {
    if (comm.rank() < 2) {
      for (word_t i = 0; i < 3; ++i) comm.send(2, 3, {comm.rank(), i});
      comm.barrier();
    } else {
      comm.barrier();
      std::vector<index_t> order;
      while (const auto got = comm.recv_any(3, std::chrono::milliseconds(0))) {
        EXPECT_EQ(got->second.at(0), got->first);
        order.push_back(got->first);
      }
      EXPECT_EQ(order, (std::vector<index_t>{0, 1, 0, 1, 0, 1}));
    }
  });
}

TEST(Comm, DelayedMessagesReorderBehindLaterTraffic) {
  FaultPlan plan;
  plan.seed = 3;
  plan.delay = 0.999; // first draw delays; make the release draw-free
  plan.delay_deliveries = 1;
  run(2, plan, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 3, {1}); // delayed with high probability
      comm.send(1, 3, {2}); // its delivery releases the first
      comm.barrier();
    } else {
      comm.barrier();
      int received = 0;
      while (comm.recv_deadline(0, 3, std::chrono::milliseconds(10))) {
        ++received;
      }
      EXPECT_EQ(received, 2); // reordered, never lost
      EXPECT_GE(comm.fault_stats().delayed, 1);
    }
  });
}

// Regression (found by the Clang thread-safety annotation pass over
// comm.cpp): mark_dead wakes every mailbox cv "so deadline receives
// re-check liveness promptly" — but take_deadline's wait never checked
// liveness, so a receive from a dead sender slept out its entire timeout
// on every retry.  It must now return nullopt as soon as the sender is
// dead and nothing is pending.
TEST(Comm, RecvDeadlineReturnsEarlyWhenSenderIsDead) {
  FaultPlan plan;
  plan.kill_rank = 1;
  plan.kill_point = "before-sending";
  std::atomic<long long> waited_ms{-1};
  run(2, plan, [&](Comm& comm) {
    if (comm.rank() == 1) {
      comm.fault_point("before-sending"); // dies here, never sends
      return;
    }
    while (comm.rank_alive(1)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const auto t0 = std::chrono::steady_clock::now();
    const auto got = comm.recv_deadline(1, 3, std::chrono::seconds(30));
    EXPECT_FALSE(got.has_value());
    waited_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  });
  ASSERT_GE(waited_ms.load(), 0) << "receiver never ran";
  // Seconds of slack for loaded CI machines — the point is that it did
  // not sleep anywhere near the 30 s deadline.
  EXPECT_LT(waited_ms.load(), 5000);
}

// Messages that arrived (or were fault-parked) before the sender died are
// still deliverable: early-return must not eat pending data.
TEST(Comm, RecvDeadlineDeliversPendingMessageFromDeadSender) {
  FaultPlan plan;
  plan.kill_rank = 1;
  plan.kill_point = "after-sending";
  run(2, plan, [](Comm& comm) {
    if (comm.rank() == 1) {
      comm.send(0, 3, {99});
      comm.fault_point("after-sending");
      return;
    }
    while (comm.rank_alive(1)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const auto got = comm.recv_deadline(1, 3, std::chrono::seconds(30));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, (Message{99}));
    // A second receive finds the mailbox empty and the sender dead.
    EXPECT_FALSE(
        comm.recv_deadline(1, 3, std::chrono::seconds(30)).has_value());
  });
}

// ---------------------------------------------------------------------------
// The fault-tolerant exchange under probabilistic plans.

kron::BipartiteKronecker sample_product(std::uint64_t seed) {
  Rng rng(seed);
  return kron::BipartiteKronecker::raw(
      gen::random_nonbipartite_connected(16, 40, rng),
      gen::random_bipartite(5, 5, 12, rng));
}

TEST(FaultyExchange, AbsorbsDropsDuplicatesAndReorders) {
  const auto kp = sample_product(21);
  const count_t expect = kron::global_squares(kp);
  const double s = fault_rate_scale();
  FaultPlan plan;
  plan.seed = 99;
  plan.drop = std::min(0.15 * s, 0.3);
  plan.duplicate = std::min(0.15 * s, 0.3);
  plan.delay = std::min(0.15 * s, 0.3);
  const kron::PartitionedStream ps(kp, 4);
  run(4, plan, [&](Comm& comm) {
    const auto shard = generate_shard(kp, ps, comm.rank());
    ExchangeStats stats;
    const count_t counted =
        distributed_global_butterflies(comm, shard, {}, &stats);
    EXPECT_EQ(counted, expect);
    if (comm.rank() == 0) {
      const auto faults = comm.fault_stats();
      EXPECT_GT(faults.dropped + faults.duplicated + faults.delayed, 0);
    }
  });
}

TEST(FaultyExchange, RetryExhaustionThrowsTimeoutError) {
  const auto kp = sample_product(22);
  const kron::PartitionedStream ps(kp, 2);
  FaultPlan plan;
  plan.drop = 1.0; // no application message ever arrives
  EXPECT_THROW(run(2, plan,
                   [&](Comm& comm) {
                     const auto shard = generate_shard(kp, ps, comm.rank());
                     distributed_global_butterflies(comm, shard,
                                                    fast_retry());
                   }),
               timeout_error);
}

TEST(FaultyExchange, PeerKilledBeforeServingThrowsRankFailed) {
  const auto kp = sample_product(23);
  const kron::PartitionedStream ps(kp, 3);
  // Ranks fetch rows only from lower ranks: every survivor needs rank 0's
  // rows, and none needs rank 2's, whose death the empty handshake finds.
  for (const index_t kill : {0, 2}) {
    SCOPED_TRACE("kill rank " + std::to_string(kill));
    FaultPlan plan;
    plan.kill_rank = kill;
    plan.kill_point = "exchange-serve"; // dies after membership agreement
    EXPECT_THROW(run(3, plan,
                     [&](Comm& comm) {
                       const auto shard =
                           generate_shard(kp, ps, comm.rank());
                       distributed_global_butterflies(comm, shard,
                                                      fast_retry());
                     }),
                 rank_failed);
  }
}

// ---------------------------------------------------------------------------
// Supervised recovery over the durable store, self-verified against the
// factored oracle.

/// A 4-shard store of kp in `dir`, in segments small enough that every
/// rank loads several and a "load-segment" kill lands mid-shard.
io::StreamGenOptions store_options(const std::string& dir,
                                   index_t shards = 4) {
  io::StreamGenOptions opt;
  opt.dir = dir;
  opt.shards = shards;
  opt.segment_edges = 64;
  return opt;
}

/// generate_durable over a FaultyFileOps that kills it at `point`'s
/// `hits`-th hit; true when the kill fired.
bool generate_until_killed(const kron::BipartiteKronecker& kp,
                           const io::StreamGenOptions& opt,
                           const std::string& point, std::uint64_t hits) {
  io::FsFaultPlan fs_plan;
  fs_plan.kill_point = point;
  fs_plan.kill_hits = hits;
  io::FaultyFileOps faulty(io::real_file_ops(), fs_plan);
  try {
    (void)io::generate_durable(faulty, kp, opt);
  } catch (const io::killed_at&) {
    return true;
  }
  return false;
}

/// Shard `shard`'s records, from its only segment.
std::vector<std::pair<index_t, index_t>> records_of(const std::string& dir,
                                                    index_t shard) {
  std::vector<std::pair<index_t, index_t>> recs;
  io::read_segment(io::real_file_ops(),
                   dir + "/" + io::segment_name(shard, 0))
      .for_each_edge([&](index_t p, index_t q) { recs.emplace_back(p, q); });
  return recs;
}

/// Rewrite shard `shard`'s only segment with `recs` and re-chain the
/// manifest, so every checksum and chain hash of the store is valid.
void reseal(const kron::BipartiteKronecker& kp, const std::string& dir,
            index_t shard,
            const std::vector<std::pair<index_t, index_t>>& recs) {
  auto& ops = io::real_file_ops();
  io::SegmentHeader h;
  h.spec_hash = io::spec_hash(kp);
  h.shard = shard;
  h.num_edges = static_cast<count_t>(recs.size());
  io::SegmentBuffer buf(h.num_edges);
  for (const auto& [p, q] : recs) buf.push(p, q);
  std::uint64_t chain = kFnvBasis;
  (void)buf.seal(h, chain);
  io::publish_segment(ops, dir, buf);
  auto man = *io::read_manifest(ops, dir);
  man.shards[static_cast<std::size_t>(shard)].chain_hash = chain;
  io::write_manifest(ops, dir, man);
}

/// Collect every survivor's report and require them to be identical on
/// the fields the supervisor aggregates.
struct ReportCollector {
  std::mutex mutex;
  std::vector<RecoveryReport> reports;
  void add(const RecoveryReport& r) {
    std::lock_guard lock(mutex);
    reports.push_back(r);
  }
  void expect_consistent(std::size_t survivors) {
    ASSERT_EQ(reports.size(), survivors);
    for (const auto& r : reports) {
      EXPECT_EQ(r.counted, reports.front().counted);
      EXPECT_EQ(r.ground_truth, reports.front().ground_truth);
      EXPECT_EQ(r.verified, reports.front().verified);
      EXPECT_EQ(r.dead_ranks, reports.front().dead_ranks);
      EXPECT_EQ(r.left_rows_reassigned, reports.front().left_rows_reassigned);
    }
  }
};

TEST(Recovery, CleanSupervisedRunVerifies) {
  const auto kp = sample_product(31);
  const count_t expect = kron::global_squares(kp);
  const kron::PartitionedStream ps(kp, 4);
  const TempDir dir("recovery_clean");
  (void)io::generate_durable(io::real_file_ops(), kp,
                             store_options(dir.path()));
  run(4, [&](Comm& comm) {
    const auto report = supervised_global_butterflies(
        comm, kp, ps, io::real_file_ops(), dir.path());
    EXPECT_TRUE(report.verified);
    EXPECT_EQ(report.counted, expect);
    EXPECT_EQ(report.ground_truth, expect);
    EXPECT_TRUE(report.dead_ranks.empty());
    EXPECT_EQ(report.left_rows_reassigned, 0);
  });
}

// The acceptance scenario: the store's generation is killed and resumed,
// then messages are dropped and duplicated at ~1% (scaled by
// KRONLAB_FAULT_RATE in CI) and rank 1 dies mid-load; its survivor loads
// rank 1's shard from the store, and the recovered distributed count
// must be bit-identical to the factored ground truth.
TEST(Recovery, KillMidGenerationResumesAndVerifies) {
  const auto kp = sample_product(32);
  const count_t expect = kron::global_squares(kp);
  const kron::PartitionedStream ps(kp, 4);
  const auto [llo, lhi] = ps.owned_left_rows(1);
  const TempDir dir("recovery_resume");
  auto opt = store_options(dir.path());
  ASSERT_TRUE(generate_until_killed(kp, opt, "segment:rename:after", 5));
  opt.resume = true;
  const auto resumed = io::generate_durable(io::real_file_ops(), kp, opt);
  EXPECT_GT(resumed.edges_resumed, 0);
  // More than two segments, so the second "load-segment" point is
  // mid-shard.
  ASSERT_GT(resumed.manifest.shards[1].segments, 2);

  const double s = fault_rate_scale();
  FaultPlan plan;
  plan.seed = 404;
  plan.drop = std::min(0.01 * s, 0.2);
  plan.duplicate = std::min(0.01 * s, 0.2);
  plan.kill_rank = 1;
  plan.kill_point = "load-segment";
  plan.kill_hits = 2;

  ReportCollector collector;
  run(4, plan, [&](Comm& comm) {
    const auto report = supervised_global_butterflies(
        comm, kp, ps, io::real_file_ops(), dir.path());
    collector.add(report);
    EXPECT_TRUE(report.verified);
    EXPECT_EQ(report.counted, expect);
    EXPECT_EQ(report.ground_truth, expect);
    EXPECT_TRUE(report.shard_stats_ok);
    EXPECT_EQ(report.dead_ranks, (std::vector<index_t>{1}));
    EXPECT_EQ(report.left_rows_reassigned, lhi - llo);
  });
  collector.expect_consistent(3);
}

TEST(Recovery, TornTailIsDiscardedByResumeAndVerifies) {
  const auto kp = sample_product(33);
  const count_t expect = kron::global_squares(kp);
  const kron::PartitionedStream ps(kp, 4);
  const auto [llo, lhi] = ps.owned_left_rows(2);
  const TempDir dir("recovery_torn");
  auto opt = store_options(dir.path());
  // A torn segment .tmp, then an uncommitted tail far past shard 2's
  // committed range: resume discards both and completes the store.
  ASSERT_TRUE(generate_until_killed(kp, opt, "segment:write:torn", 3));
  std::ofstream(dir.file(io::segment_name(2, 999)), std::ios::binary)
      << "not a segment";
  opt.resume = true;
  const auto resumed = io::generate_durable(io::real_file_ops(), kp, opt);
  EXPECT_GE(resumed.discarded_files, 2);

  // Rank 2 dies before its first segment: rank 1 loads the whole shard.
  FaultPlan plan;
  plan.seed = 505;
  plan.kill_rank = 2;
  plan.kill_point = "load-segment";
  run(4, plan, [&](Comm& comm) {
    const auto report = supervised_global_butterflies(
        comm, kp, ps, io::real_file_ops(), dir.path());
    EXPECT_TRUE(report.verified);
    EXPECT_EQ(report.counted, expect);
    EXPECT_EQ(report.dead_ranks, (std::vector<index_t>{2}));
    EXPECT_EQ(report.left_rows_reassigned, lhi - llo);
  });
}

TEST(Recovery, CorruptCommittedSegmentIsRejected) {
  // Per scan_store's invariants a committed segment that fails its
  // checksum is a corrupt store, not a crash window: the run surfaces
  // it and never regenerates around it.
  const auto kp = sample_product(34);
  const kron::PartitionedStream ps(kp, 4);
  const TempDir dir("recovery_corrupt");
  (void)io::generate_durable(io::real_file_ops(), kp,
                             store_options(dir.path()));
  {
    std::fstream f(dir.file(io::segment_name(1, 1)),
                   std::ios::in | std::ios::out | std::ios::binary);
    const auto at = static_cast<std::streamoff>(
        io::kSegmentHeadWords * sizeof(std::int64_t) + 3);
    char b = 0;
    f.seekg(at);
    f.get(b);
    f.seekp(at);
    f.put(static_cast<char>(b ^ 0x10));
  }
  // Rank 1 meets the flip itself, or dies before it and the survivor
  // that loads its shard does.
  FaultPlan survivor_meets_it;
  survivor_meets_it.kill_rank = 1;
  survivor_meets_it.kill_point = "load-segment";
  for (const auto& plan : {FaultPlan{}, survivor_meets_it}) {
    EXPECT_THROW(run(4, plan,
                     [&](Comm& comm) {
                       (void)supervised_global_butterflies(
                           comm, kp, ps, io::real_file_ops(), dir.path());
                     }),
                 validation_error);
  }
}

TEST(Recovery, SupervisorDeathIsRejected) {
  const auto kp = sample_product(35);
  const kron::PartitionedStream ps(kp, 3);
  const TempDir dir("recovery_supervisor");
  (void)io::generate_durable(io::real_file_ops(), kp,
                             store_options(dir.path(), 3));
  FaultPlan plan;
  plan.kill_rank = 0;
  plan.kill_point = "load-segment";
  EXPECT_THROW(run(3, plan,
                   [&](Comm& comm) {
                     (void)supervised_global_butterflies(
                         comm, kp, ps, io::real_file_ops(), dir.path());
                   }),
               invalid_argument);
}

TEST(Recovery, KillAndMessageFaultsCombined) {
  // Everything at once: drops, duplicates, reorders, and a mid-load kill
  // whose shard a survivor loads — the full production nightmare.
  const auto kp = sample_product(36);
  const count_t expect = kron::global_squares(kp);
  const kron::PartitionedStream ps(kp, 4);
  const TempDir dir("recovery_combined");
  (void)io::generate_durable(io::real_file_ops(), kp,
                             store_options(dir.path()));
  const double s = fault_rate_scale();
  FaultPlan plan;
  plan.seed = 707;
  plan.drop = std::min(0.05 * s, 0.25);
  plan.duplicate = std::min(0.05 * s, 0.25);
  plan.delay = std::min(0.05 * s, 0.25);
  plan.kill_rank = 3;
  plan.kill_point = "load-segment";
  plan.kill_hits = 2;

  ReportCollector collector;
  run(4, plan, [&](Comm& comm) {
    const auto report = supervised_global_butterflies(
        comm, kp, ps, io::real_file_ops(), dir.path());
    collector.add(report);
    EXPECT_TRUE(report.verified);
    EXPECT_EQ(report.counted, expect);
    EXPECT_EQ(report.dead_ranks, (std::vector<index_t>{3}));
  });
  collector.expect_consistent(3);
}

TEST(Recovery, DegreePreservingSwapIsNeverVerified) {
  // A generator bug that swaps the endpoints of two edges keeps every row
  // degree, and a store resealed around it passes every byte check; the
  // supervised run must still never call it verified.
  const auto kp = sample_product(37);
  const count_t expect = kron::global_squares(kp);
  const kron::PartitionedStream ps(kp, 4);
  const TempDir dir("recovery_swap");
  // One segment per shard, so the last one holds many rows to swap in.
  auto opt = store_options(dir.path());
  opt.segment_edges = 1 << 14;
  (void)io::generate_durable(io::real_file_ops(), kp, opt);

  // Swap the columns of two records in different rows of shard 1's last
  // (and only) committed segment, such that both rows stay strictly
  // ascending and the direct 4-cycle count changes.  Resealed, the store
  // passes every checksum and chain-hash check.
  const auto c = kp.materialize();
  const auto slot = [&](index_t p, index_t q) {
    const auto cols = c.row_cols(p);
    return static_cast<std::size_t>(
        std::lower_bound(cols.begin(), cols.end(), q) - cols.begin());
  };
  const auto fits = [&](index_t p, index_t q_old, index_t q_new) {
    const auto cols = c.row_cols(p);
    const std::size_t k = slot(p, q_old);
    return (k == 0 || cols[k - 1] < q_new) &&
           (k + 1 == cols.size() || q_new < cols[k + 1]);
  };
  auto recs = records_of(dir.path(), 1);
  std::optional<std::pair<std::size_t, std::size_t>> swap;
  for (std::size_t a = 0; a < recs.size() && !swap; ++a) {
    for (std::size_t b = a + 1; b < recs.size() && !swap; ++b) {
      const auto [pa, qa] = recs[a];
      const auto [pb, qb] = recs[b];
      if (pa == pb || qa == qb || !fits(pa, qa, qb) || !fits(pb, qb, qa)) {
        continue;
      }
      auto cols = c.col_idx();
      cols[static_cast<std::size_t>(c.row_ptr()[pa]) + slot(pa, qa)] = qb;
      cols[static_cast<std::size_t>(c.row_ptr()[pb]) + slot(pb, qb)] = qa;
      const grb::Csr<count_t> mutated(c.nrows(), c.ncols(), c.row_ptr(),
                                      std::move(cols), c.vals());
      if (graph::global_butterflies(mutated) != expect) swap = {{a, b}};
    }
  }
  ASSERT_TRUE(swap) << "no count-changing degree-preserving swap found";
  std::swap(recs[swap->first].second, recs[swap->second].second);

  reseal(kp, dir.path(), 1, recs);

  try {
    run(4, [&](Comm& comm) {
      const auto report = supervised_global_butterflies(
          comm, kp, ps, io::real_file_ops(), dir.path());
      EXPECT_FALSE(report.verified);
      EXPECT_NE(report.counted, report.ground_truth);
    });
  } catch (const validation_error&) {
    // load_shard refused the store: not verified either.
  }
}

TEST(Recovery, LoadShardRejectsStoresThatDoNotFitThePartition) {
  // Every mismatch is a validation_error raised before the Csr
  // constructor could throw invalid_argument.
  const auto kp = sample_product(38);
  const kron::PartitionedStream ps(kp, 4);
  const TempDir dir("recovery_layout");
  auto opt = store_options(dir.path());
  opt.segment_edges = 1 << 14;
  auto& ops = io::real_file_ops();
  (void)io::generate_durable(ops, kp, opt);
  const auto load = [&] {
    (void)load_shard(ops, dir.path(), kp, ps, 1);
  };
  EXPECT_NO_THROW(load());
  const auto other = sample_product(39);
  EXPECT_THROW((void)load_shard(ops, dir.path(), other,
                                kron::PartitionedStream(other, 4), 1),
               validation_error);
  EXPECT_THROW((void)load_shard(ops, dir.path(), kp,
                                kron::PartitionedStream(kp, 3), 1),
               validation_error);

  const auto recs = records_of(dir.path(), 1);
  ASSERT_EQ(recs[0].first, recs[1].first);
  auto unsorted = recs;
  std::swap(unsorted[0].second, unsorted[1].second);
  auto wrong_row = recs;
  wrong_row[0].first += 1;
  auto out_of_range = recs;
  out_of_range.back().second = kp.num_vertices();
  for (const auto& bad : {unsorted, wrong_row, out_of_range}) {
    reseal(kp, dir.path(), 1, bad);
    EXPECT_THROW(load(), validation_error);
  }

  reseal(kp, dir.path(), 1, recs);
  auto man = *io::read_manifest(ops, dir.path());
  man.shards[1].edges -= 1; // an incomplete shard
  io::write_manifest(ops, dir.path(), man);
  EXPECT_THROW(load(), validation_error);
}

} // namespace
} // namespace kronlab::dist
