// kronlab/dist/sharded.hpp
//
// Distributed Kronecker generation and validation over the simulated
// runtime (dist/comm.hpp) — the miniature of the paper group's
// extreme-scale workflow: every rank generates its row shard of
// C = M ⊗ B from replicated factor matrices (no communication) or loads
// it from the durable store generate_durable wrote (io/stream_gen.hpp),
// runs the distributed analytic (global 4-cycle count via ghost-row
// exchange), and the result is validated against the factored ground
// truth, which each rank also evaluates for its own rows in factor space.
//
// Fault tolerance (the production posture the paper lineage demands — at
// a million processes, dropped messages and dead ranks are the norm):
//  * the ghost-row exchange is an idempotent request/reply/ack protocol
//    with sequence-numbered (epoch-stamped) messages, bounded retry and
//    exponential backoff — duplicates are absorbed, losses are retried,
//    exhaustion surfaces a typed timeout_error / rank_failed, and a rank
//    lingers (re-acking resends) until every live peer announces
//    quiescence, so a dropped final ack cannot strand a peer; the
//    protocol is row-granular and its frames ship through the
//    per-destination message aggregator (dist/aggregator.hpp), which
//    coalesces them into batches flushed on capacity and at phase
//    boundaries without touching the retry semantics;
//  * supervised_global_butterflies loads every shard from the durable
//    store and reassigns a dead rank's row range to the next surviving
//    rank, which loads the dead rank's shard from the same store;
//  * after recovery every rank cross-checks its shard statistics and the
//    distributed count against the factor-space ground truth — the
//    paper's exact oracle doubling as an online corruption detector —
//    and the run emits a structured RecoveryReport.

#pragma once

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "kronlab/dist/aggregator.hpp"
#include "kronlab/dist/comm.hpp"
#include "kronlab/grb/csr.hpp"
#include "kronlab/io/file_ops.hpp"
#include "kronlab/kron/partition.hpp"
#include "kronlab/kron/product.hpp"

namespace kronlab::dist {

/// A row shard of a global n×n adjacency: this rank owns rows
/// [row_begin, row_end); `rows` is their local CSR with global column ids.
struct Shard {
  index_t n = 0;
  index_t row_begin = 0;
  index_t row_end = 0;
  grb::Csr<count_t> rows;

  [[nodiscard]] bool owns(index_t v) const {
    return v >= row_begin && v < row_end;
  }
  [[nodiscard]] index_t local(index_t v) const { return v - row_begin; }
};

/// Retry/backoff policy for the fault-tolerant exchange protocol.
struct RetryConfig {
  std::chrono::milliseconds timeout{50}; ///< first-attempt deadline
  int max_retries = 8;                   ///< resends before giving up
  double backoff = 2.0;                  ///< deadline multiplier per retry
  std::chrono::milliseconds max_backoff{400}; ///< deadline cap
};

/// Per-rank protocol counters, aggregated into RecoveryReport.  The
/// exchange is row-granular: dup_requests / dup_replies count duplicate
/// *row frames* absorbed idempotently (a retried batch contributes one
/// per already-served row), while retries / reply_resends count per-peer
/// deadline expiries.
struct ExchangeStats {
  count_t retries = 0;       ///< request resends after a deadline expired
  count_t reply_resends = 0; ///< reply resends while awaiting an ack
  count_t dup_requests = 0;  ///< duplicate request frames served idempotently
  count_t dup_replies = 0;   ///< duplicate / stale reply frames absorbed
  double backoff_seconds = 0; ///< total time spent in expired deadlines
  AggregatorStats agg;        ///< message-aggregation layer counters
};

/// Structured outcome of one supervised fault-tolerant run.  Every
/// surviving rank returns an identical report.
struct RecoveryReport {
  index_t ranks = 0;                ///< ranks the run started with
  std::vector<index_t> dead_ranks;  ///< ranks killed by the fault plan
  FaultStats faults;                ///< faults the runtime injected
  ExchangeStats exchange;           ///< protocol totals across ranks
  count_t left_rows_reassigned = 0; ///< left-factor rows taken over
  count_t counted = -1;             ///< distributed 4-cycle count
  count_t ground_truth = -1;        ///< factored ground truth (Thms 3–5)
  bool shard_stats_ok = false; ///< factor-space entry-count cross-check
  bool verified = false;       ///< counted == ground_truth && stats ok
};

/// Generate this rank's shard of the product — communication-free, from
/// the replicated factors.
Shard generate_shard(const kron::BipartiteKronecker& kp,
                     const kron::PartitionedStream& ps, index_t rank);

/// Load rank `rank`'s shard from the complete durable store in `dir`
/// (generate_durable at ps.parts() shards): row_ptr comes from the factor
/// degrees, as in generate_shard, and the columns from the committed
/// KRNLSEG2 records, read through the walk verify_store uses.  Throws
/// io_error when the store is missing or unreadable, and validation_error
/// when it is corrupt or does not fit the partition: a different spec or
/// shard count, an incomplete shard, a record in the wrong row, or a
/// column out of range or out of order.  Safe to call from several ranks
/// at once (FileOps reads may run concurrently).
Shard load_shard(io::FileOps& ops, const std::string& dir,
                 const kron::BipartiteKronecker& kp,
                 const kron::PartitionedStream& ps, index_t rank);

/// Distributed exact global 4-cycle count over a row-sharded graph.
/// The ghost-row exchange runs the idempotent request/reply/ack protocol
/// with bounded retry + exponential backoff over the *live* ranks; the
/// shards of the live ranks must cover [0, n) disjointly, contiguously,
/// in rank order.  Every rank returns the global count.  Throws
/// timeout_error when a live peer stops answering within the retry
/// budget, rank_failed when a peer dies while its rows are still needed.
/// Row request / reply / ack frames ship through the per-destination
/// Aggregator (dist/aggregator.hpp).
count_t distributed_global_butterflies(Comm& comm, const Shard& shard,
                                       const RetryConfig& retry = {},
                                       ExchangeStats* stats = nullptr);

/// Each rank's share of the *ground-truth* Σ_p s_C(p) over its owned
/// product rows, evaluated in factor space (no product data touched);
/// all-reduced so every rank returns the exact global 4-cycle count.
count_t distributed_ground_truth_squares(Comm& comm,
                                         const kron::BipartiteKronecker& kp,
                                         const kron::PartitionedStream& ps);

/// Recovery variant: explicit owned left-factor row range and explicit
/// member set (the survivors), for use after row reassignment.
count_t distributed_ground_truth_squares(
    Comm& comm, const kron::BipartiteKronecker& kp,
    std::pair<index_t, index_t> owned_left_rows,
    const std::vector<index_t>& members);

/// The full fault-tolerant pipeline over the durable store in `dir`:
/// each rank loads its shard (load_shard, with a "load-segment" fault
/// point after every segment), then death detection, reassignment of
/// dead ranks' row ranges to survivors (each loads the dead shards that
/// follow it), resilient exchange + count, and ground-truth
/// self-verification.  Rank 0 acts as supervisor and must survive the
/// fault plan.  Every surviving rank returns the same RecoveryReport;
/// `report.verified` is the bit a production deployment would alarm on.
/// A corrupt store is never worked around: load_shard's
/// validation_error surfaces from the run.
RecoveryReport supervised_global_butterflies(
    Comm& comm, const kron::BipartiteKronecker& kp,
    const kron::PartitionedStream& ps, io::FileOps& ops,
    const std::string& dir, const RetryConfig& retry = {});

} // namespace kronlab::dist
