// kronlab/dist/comm.hpp
//
// A simulated distributed-memory runtime: MPI-flavored ranks, point-to-
// point messages, barriers and collectives — implemented over threads and
// mailboxes.
//
// Why it exists: the paper's lineage is distributed generation and
// validation at extreme scale (the cited trillion-edge triangle validation
// ran on a million processes).  kronlab cannot assume MPI in its test
// environment, but the *algorithms* — shard-local generation, ghost-row
// exchange, reduction of validated counts — are communication-pattern
// code that deserves real tests.  This runtime executes them with the
// exact message discipline an MPI port would use: every transfer is an
// explicit send/recv pair, there is no shared mutable state between
// ranks, and collectives are built from the same primitives.
//
// Model: `run(P, fn)` spawns P rank threads, each receiving a Comm bound
// to its rank.  Messages are typed vectors of 64-bit words with an integer
// tag; recv blocks; collectives are synchronizing.  Exceptions in any rank
// are captured and rethrown from run().
//
// Fault injection: `run(P, plan, fn)` threads a seeded FaultPlan through
// the mailbox layer.  The plan can drop, delay (reorder), and duplicate
// application messages (tag >= 0), and kill a rank at a named fault point
// (`Comm::fault_point`).  Negative tags — the built-in collectives and the
// member-collectives used by recovery protocols — model a reliable
// out-of-band control channel and are exempt by default.  Protocols that
// must survive faults use the deadline receive variants plus the liveness
// queries (`rank_alive` / `live_ranks`; the runtime is a perfect failure
// detector) and surface `timeout_error` / `rank_failed` on exhaustion.

#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "kronlab/common/types.hpp"

namespace kronlab::dist {

/// Payload word: every message is a vector of these.
using word_t = std::int64_t;
using Message = std::vector<word_t>;

/// Seeded fault-injection plan for one `run`.  Probabilities are per
/// message and mutually exclusive (one uniform draw decides the action);
/// draws are deterministic per (sender, receiver, channel-sequence) given
/// `seed`, so a plan replays identically for identical traffic.
struct FaultPlan {
  std::uint64_t seed = 0;
  double drop = 0;      ///< P(message silently lost)
  double duplicate = 0; ///< P(message delivered twice)
  double delay = 0;     ///< P(message deferred past later traffic — reorder)

  /// A delayed message is released after this many subsequent deliveries
  /// to the same mailbox (or when a deadline receive on that mailbox
  /// expires — the "late packet finally arrives" case).
  int delay_deliveries = 2;

  /// Kill `kill_rank` the `kill_hits`-th time it reaches the fault point
  /// named `kill_point` (see Comm::fault_point).  -1 = no kill.
  index_t kill_rank = -1;
  std::string kill_point;
  std::uint64_t kill_hits = 1;

  /// Inject faults only into application messages (tag >= 0); negative
  /// (collective / control) tags stay reliable.  Turning this off makes
  /// the built-in collectives unsafe under faults — test use only.
  bool exempt_collectives = true;

  [[nodiscard]] bool injects_message_faults() const {
    return drop > 0 || duplicate > 0 || delay > 0;
  }
};

/// Counters of faults the runtime actually injected (across all ranks).
struct FaultStats {
  std::int64_t dropped = 0;
  std::int64_t duplicated = 0;
  std::int64_t delayed = 0;
};

namespace detail {
struct Runtime;
} // namespace detail

/// Per-rank communicator handle.  Valid only inside the rank function.
class Comm {
public:
  [[nodiscard]] index_t rank() const { return rank_; }
  [[nodiscard]] index_t size() const;

  /// Asynchronous-buffered send (never blocks).  Subject to the fault
  /// plan; sends to dead ranks vanish silently (network to a dead host).
  void send(index_t to, int tag, Message msg);

  /// Blocking receive of the next message with `tag` from `from`
  /// (messages from one sender with one tag arrive in send order).
  /// Throws rank_failed if the sender dies before a message arrives —
  /// a blocking receive from a dead rank can never complete.
  [[nodiscard]] Message recv(index_t from, int tag);

  /// Deadline receive: like recv, but returns nullopt once `timeout`
  /// elapses with no matching message.  Expiry releases any fault-delayed
  /// messages parked at this rank's mailbox (they are then visible to the
  /// retry that follows).  Returns nullopt *early* — without waiting out
  /// the deadline — once the sender is dead and no message is pending:
  /// nothing new can ever arrive, so retry loops fail over promptly
  /// instead of burning their full timeout budget per attempt.  A zero
  /// timeout is a poll: it never waits, and an empty queue still releases
  /// the parked messages.
  [[nodiscard]] std::optional<Message> recv_deadline(index_t from, int tag,
                                       std::chrono::milliseconds timeout);

  /// Deadline receive from *any* sender on `tag`; returns (from, message).
  /// Senders with pending messages are served round-robin.
  [[nodiscard]] std::optional<std::pair<index_t, Message>> recv_any(
      int tag, std::chrono::milliseconds timeout);

  /// Perfect failure detector: false once `r` was killed at a fault point.
  [[nodiscard]] bool rank_alive(index_t r) const;

  /// All currently-live ranks, ascending (always contains this rank).
  [[nodiscard]] std::vector<index_t> live_ranks() const;

  /// Named kill point: if the fault plan targets (this rank, `point`) and
  /// the hit count is reached, this rank dies here — its thread unwinds,
  /// the failure detector flips, and barrier bookkeeping is released.
  void fault_point(const char* point);

  /// Faults injected so far across the whole runtime (all ranks).
  [[nodiscard]] FaultStats fault_stats() const;

  /// Synchronize all *live* ranks (a rank dying releases the barrier).
  void barrier();

  /// Sum a value across ranks; every rank gets the total.
  [[nodiscard]] word_t allreduce_sum(word_t value);

  /// Member-collective variant: only `members` (ascending, containing
  /// this rank) participate; members[0] is the root.  Used by recovery
  /// protocols after dead ranks have been excluded.
  [[nodiscard]] word_t allreduce_sum(word_t value,
                                     const std::vector<index_t>& members);

  /// Gather one value from each rank; every rank gets the full vector.
  [[nodiscard]] std::vector<word_t> allgather(word_t value);

  /// Member-collective allgather (result aligned with `members`).
  [[nodiscard]] std::vector<word_t> allgather(word_t value,
                                const std::vector<index_t>& members);

  /// All-to-all exchange: element [r] of `outgoing` goes to rank r; the
  /// result holds what every rank sent here.
  [[nodiscard]] std::vector<Message> alltoall(std::vector<Message> outgoing);

  /// Monotonic per-rank protocol epoch (see sharded.cpp's exchange):
  /// collective-order calls on every rank yield matching values.
  word_t next_epoch() { return ++epoch_; }

private:
  friend struct detail::Runtime;
  friend void run(index_t, const std::function<void(Comm&)>&);
  friend void run(index_t, const FaultPlan&,
                  const std::function<void(Comm&)>&);
  Comm(detail::Runtime* rt, index_t rank) : rt_(rt), rank_(rank) {}
  detail::Runtime* rt_;
  index_t rank_;
  word_t epoch_ = 0;
};

/// Execute `fn` on `ranks` simulated ranks; returns when all finish.
/// Rethrows the first rank exception.
void run(index_t ranks, const std::function<void(Comm&)>& fn);

/// Same, with fault injection.  A rank killed by the plan is not an
/// error; surviving ranks keep running and run() returns normally once
/// they finish.
void run(index_t ranks, const FaultPlan& plan,
         const std::function<void(Comm&)>& fn);

} // namespace kronlab::dist
