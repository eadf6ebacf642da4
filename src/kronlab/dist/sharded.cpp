#include "kronlab/dist/sharded.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "kronlab/common/error.hpp"
#include "kronlab/grb/kron.hpp"
#include "kronlab/io/stream_gen.hpp"
#include "kronlab/obs/stats.hpp"
#include "kronlab/obs/trace.hpp"
#include "kronlab/obs/watchdog.hpp"
#include "kronlab/graph/wedges.hpp"
#include "kronlab/kron/ground_truth.hpp"

namespace kronlab::dist {

namespace {

/// Set `shard`'s n and row range for `rank`, and return the row_ptr the
/// factor degrees fix: product row (i, k) stores deg_M(i) · deg_B(k)
/// entries.
grb::Array<offset_t> shard_layout(const kron::BipartiteKronecker& kp,
                                  const kron::PartitionedStream& ps,
                                  index_t rank, Shard& shard) {
  shard.n = kp.num_vertices();
  std::tie(shard.row_begin, shard.row_end) = ps.owned_product_rows(rank);
  grb::Array<offset_t> row_ptr{0};
  row_ptr.reserve(static_cast<std::size_t>(shard.row_end - shard.row_begin) +
                  1);
  grb::for_each_kron_row(kp.left(), kp.right(), shard.row_begin,
                         shard.row_end,
                         [&](index_t, index_t, index_t, offset_t size) {
                           row_ptr.push_back(row_ptr.back() + size);
                         });
  return row_ptr;
}

/// Adopt row-ordered shard arrays as a 0/1 matrix over n columns.  The
/// entry stream is row-major and ascending within a row (M's and B's rows
/// are sorted), so the columns need no sort; the Csr constructor still
/// validates every invariant.
grb::Csr<count_t> shard_csr(index_t n, grb::Array<offset_t> row_ptr,
                            grb::Array<index_t> cols) {
  const auto nrows = static_cast<index_t>(row_ptr.size()) - 1;
  grb::Array<count_t> vals(cols.size(), 1);
  return {nrows, n, std::move(row_ptr), std::move(cols), std::move(vals)};
}

} // namespace

Shard generate_shard(const kron::BipartiteKronecker& kp,
                     const kron::PartitionedStream& ps, index_t rank) {
  Shard shard;
  auto row_ptr = shard_layout(kp, ps, rank, shard);
  grb::Array<index_t> cols;
  cols.reserve(static_cast<std::size_t>(row_ptr.back()));
  ps.for_each_entry(rank, [&](index_t, index_t q) { cols.push_back(q); });
  shard.rows = shard_csr(shard.n, std::move(row_ptr), std::move(cols));
  return shard;
}

namespace {

/// load_shard, hitting comm's "load-segment" fault point after every
/// segment when `comm` is given.
Shard load_shard_impl(io::FileOps& ops, const std::string& dir,
                      const kron::BipartiteKronecker& kp,
                      const kron::PartitionedStream& ps, index_t rank,
                      Comm* comm) {
  KRONLAB_TRACE_SPAN("dist", "load_shard");
  const auto man = io::read_manifest(ops, dir);
  if (!man) throw io_error("durable store: " + dir + " has no manifest");
  const std::string where =
      "durable store " + dir + ", shard " + std::to_string(rank) + ": ";
  const std::uint64_t spec = io::spec_hash(kp);
  if (man->spec_hash != spec) {
    throw validation_error(where + "generated from a different spec");
  }
  if (static_cast<index_t>(man->shards.size()) != ps.parts()) {
    throw validation_error(where + "the store has " +
                           std::to_string(man->shards.size()) +
                           " shards but the partition " +
                           std::to_string(ps.parts()));
  }
  Shard shard;
  auto row_ptr = shard_layout(kp, ps, rank, shard);
  const offset_t total = row_ptr.back();
  const auto& prog = man->shards[static_cast<std::size_t>(rank)];
  if (prog.edges != total) {
    throw validation_error(where + "holds " + std::to_string(prog.edges) +
                           " of its " + std::to_string(total) +
                           " records (incomplete shard)");
  }
  // Records must fill the layout the factor degrees fix, in order: record
  // e lies in the row whose row_ptr range holds e, with columns in range
  // and strictly ascending within the row.
  grb::Array<index_t> cols(static_cast<std::size_t>(total));
  offset_t e = 0;
  std::size_t r = 0; // local row of record e
  io::for_each_committed_segment(
      dir, spec, rank, prog,
      [&](const std::string& path) { return ops.read_file(path); },
      [&](const io::SegmentData& seg) {
        if (seg.header.num_edges > total - e) {
          throw validation_error(where + "more records than its rows hold");
        }
        seg.for_each_edge([&](index_t p, index_t q) {
          while (row_ptr[r + 1] == e) ++r;
          const index_t row = shard.row_begin + static_cast<index_t>(r);
          if (p != row) {
            throw validation_error(where + "record " + std::to_string(e) +
                                   " lies in row " + std::to_string(p) +
                                   ", not row " + std::to_string(row));
          }
          if (q < 0 || q >= shard.n ||
              (e > row_ptr[r] && q <= cols[static_cast<std::size_t>(e) - 1])) {
            throw validation_error(where + "column " + std::to_string(q) +
                                   " of row " + std::to_string(p) +
                                   " is out of range or out of order");
          }
          cols[static_cast<std::size_t>(e++)] = q;
        });
        if (comm) comm->fault_point("load-segment");
      });
  shard.rows = shard_csr(shard.n, std::move(row_ptr), std::move(cols));
  return shard;
}

} // namespace

Shard load_shard(io::FileOps& ops, const std::string& dir,
                 const kron::BipartiteKronecker& kp,
                 const kron::PartitionedStream& ps, index_t rank) {
  return load_shard_impl(ops, dir, kp, ps, rank, nullptr);
}

namespace {

using clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

/// Exchange protocol: one tag, typed by the second payload word.  The
/// first word is the exchange epoch (per-rank counter advanced in
/// collective order), which sequence-numbers every frame so duplicates
/// and stragglers from earlier exchanges are absorbed.  The protocol is
/// row-granular — one REQ and one ROWS frame per ghost row, plus an
/// epoch-level empty handshake for peers a rank needs nothing from, and
/// ACKs that name the rows (or the handshake) they cover — and every
/// frame ships through the per-destination Aggregator, which coalesces
/// frames bound for one rank into batched wire messages.  Epochs are
/// positive, so raw frames never collide with the batch magic.
constexpr int kExchTag = 10;
constexpr word_t kMsgReq = 0;  ///< [epoch, REQ, v] or handshake [epoch, REQ]
constexpr word_t kMsgRows = 1; ///< [epoch, ROWS, v, deg, cols...] or
                               ///< handshake [epoch, ROWS]
constexpr word_t kMsgAck = 2;  ///< [epoch, ACK, key...], key = row id or
                               ///< kHandshake
/// Reply-state and ACK key of the empty handshake (row ids are ≥ 0).
constexpr index_t kHandshake = -1;

/// Quiescence announcements ride the reliable control channel (negative
/// tag): a rank that finished its own requests and had its replies acked
/// may still owe a re-ack for a peer's resend (its last ACK could have
/// been dropped), so it lingers in the event loop — serving stragglers —
/// until every live peer has announced DONE.  A peer's DONE also means it
/// holds every row it asked for, so it retires any replies still unacked.
constexpr int kExchCtlTag = -6;
constexpr word_t kMsgDone = 3; ///< [epoch, DONE]

/// Stored entries C owns for left-factor rows [lo, hi): the factor-space
/// expectation Σ_{i∈[lo,hi)} deg_M(i) · nnz(B) used by self-verification.
count_t expected_entries(const kron::BipartiteKronecker& kp, index_t lo,
                         index_t hi) {
  count_t m_entries = 0;
  for (index_t i = lo; i < hi; ++i) {
    m_entries += kp.left().row_degree(i);
  }
  return m_entries * kp.right().nnz();
}

/// Append `rows` (a validated CSR) after the rows already in
/// (row_ptr, cols).
void push_csr_rows(grb::Array<offset_t>& row_ptr, grb::Array<index_t>& cols,
                   const grb::Csr<count_t>& rows) {
  const offset_t base = row_ptr.back();
  for (index_t r = 0; r < rows.nrows(); ++r) {
    row_ptr.push_back(base + rows.row_ptr()[static_cast<std::size_t>(r) + 1]);
  }
  cols.insert(cols.end(), rows.col_idx().begin(), rows.col_idx().end());
}

/// Timeline annotation for a protocol event: this rank, the peer, the
/// exchange epoch (the protocol's message sequence number), and the
/// attempt count.  Only formatted when tracing is live.
void note_protocol(const char* what, index_t rank, index_t peer,
                   word_t epoch, int attempt) {
  if (!trace::enabled()) return;
  trace::instant("dist", what,
                 trace::intern("rank=" + std::to_string(rank) +
                               " peer=" + std::to_string(peer) +
                               " epoch=" + std::to_string(epoch) +
                               " attempt=" + std::to_string(attempt)));
}

milliseconds backed_off(milliseconds t, const RetryConfig& cfg) {
  const auto next = milliseconds(
      static_cast<milliseconds::rep>(static_cast<double>(t.count()) *
                                     cfg.backoff));
  return std::min(std::max(next, milliseconds(1)), cfg.max_backoff);
}

/// Worst-case per-peer wait: every attempt's deadline, plus slack for
/// peers that started the exchange late.
milliseconds retry_horizon(const RetryConfig& cfg) {
  milliseconds total{0};
  milliseconds t = cfg.timeout;
  for (int a = 0; a <= cfg.max_retries; ++a) {
    total += t;
    t = backed_off(t, cfg);
  }
  return total * 3;
}

/// Responder-side state of one reply (a served row or the handshake).
enum ReplyState : std::uint8_t { kUnserved = 0, kUnacked, kAcked };

/// Per-peer protocol state for one exchange epoch.
struct PeerState {
  index_t rank = -1;
  // The peer's owned rows.  Each needed row is requested from its owner,
  // so a ROWS frame counts only if its sender owns the row it carries.
  index_t row_begin = 0;
  index_t row_end = 0;
  // Requester side: waiting on this peer's row replies to our requests.
  // have_reply rises when every requested row has landed (missing == 0)
  // and at least one current-epoch ROWS frame arrived (got_rows — the
  // empty handshake for zero-need peers).
  const std::vector<index_t>* needed = nullptr; ///< requested rows, ascending
  std::size_t missing = 0; ///< requested rows not landed yet
  bool have_reply = false;
  bool got_rows = false;
  int req_attempts = 0;
  milliseconds req_timeout{0};
  clock::time_point req_deadline;
  // Responder side: one ReplyState byte per owned row (and one for the
  // handshake), plus the keys served, in order.  A served reply is resent
  // — rebuilt from the immutable shard — until an ACK names it.  The peer
  // is settled once it has requested at least once and nothing it was
  // served is unacked — or it is done.  A late request unsettles it.
  std::vector<std::uint8_t> reply_state;
  std::uint8_t handshake_state = kUnserved;
  std::vector<index_t> served_keys;
  std::size_t unacked = 0;
  bool served = false;
  int reply_attempts = 0; ///< resend rounds since the last ACK progress
  milliseconds ack_timeout{0};
  clock::time_point ack_deadline;
  // Announced DONE (so it holds every row it asked for) or died.
  bool done = false;

  [[nodiscard]] bool settled() const {
    return done || (served && unacked == 0);
  }
};

/// Ghost rows landed by the exchange: one column arena plus n-sized
/// offset and length tables (length 0 for a row that never landed).
struct GhostRows {
  std::vector<index_t> cols;
  std::vector<std::size_t> offset;
  std::vector<index_t> length;

  [[nodiscard]] std::span<const index_t> row(index_t v) const {
    const auto u = static_cast<std::size_t>(v);
    return {cols.data() + offset[u], static_cast<std::size_t>(length[u])};
  }
};

/// The idempotent request/reply/ack ghost-row exchange.  `waiting` is the
/// n-sized phase-1 mark array (1 for every remote row this rank needs) and
/// `needed` lists those rows per member position, ascending; a landed row
/// clears its mark.  Returns the landed rows.  All REQ/ROWS/ACK frames
/// ride the aggregator; retry semantics are unchanged — a retried batch
/// is deduplicated row by row on both sides.
GhostRows exchange_ghost_rows(Comm& comm, const Shard& shard,
                              const std::vector<index_t>& members,
                              const std::vector<word_t>& row_begins,
                              const std::vector<word_t>& row_ends,
                              std::vector<std::uint8_t>& waiting,
                              const std::vector<std::vector<index_t>>& needed,
                              word_t epoch, const RetryConfig& cfg,
                              ExchangeStats& stats) {
  trace::Span exchange_span(
      "dist", "ghost_exchange",
      trace::enabled()
          ? trace::intern("rank=" + std::to_string(comm.rank()) +
                          " epoch=" + std::to_string(epoch))
          : nullptr);
  static obs::Histogram& epoch_hist = obs::histogram("dist/exchange_epoch");
  obs::LatencyScope epoch_latency(epoch_hist);
  obs::StallGuard stall_guard("dist/exchange_epoch");
  const auto n = static_cast<std::size_t>(shard.n);
  GhostRows ghost;
  ghost.offset.assign(n, 0);
  ghost.length.assign(n, 0);
  Aggregator agg(comm, kExchTag);
  std::vector<PeerState> peers;
  std::vector<std::size_t> peer_pos(static_cast<std::size_t>(comm.size()),
                                    members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i] == comm.rank()) continue;
    PeerState ps;
    ps.rank = members[i];
    ps.row_begin = static_cast<index_t>(row_begins[i]);
    ps.row_end = static_cast<index_t>(row_ends[i]);
    ps.needed = &needed[i];
    ps.missing = needed[i].size();
    ps.reply_state.assign(
        static_cast<std::size_t>(shard.row_end - shard.row_begin), kUnserved);
    peer_pos[static_cast<std::size_t>(members[i])] = peers.size();
    peers.push_back(std::move(ps));
  }
  if (peers.empty()) return ghost;
  const auto reply_state = [&](PeerState& ps, index_t key) -> std::uint8_t& {
    return key == kHandshake
               ? ps.handshake_state
               : ps.reply_state[static_cast<std::size_t>(shard.local(key))];
  };

  // One REQ frame per still-missing row — a retry automatically narrows
  // to the rows that have not landed yet.  A peer this rank needs nothing
  // from gets the empty handshake so the REQ/ROWS/ACK round (and with it
  // quiescence accounting) stays uniform across all peer pairs.
  const auto post_requests = [&](PeerState& ps) {
    if (ps.missing == 0) {
      agg.append(ps.rank, {epoch, kMsgReq});
      return;
    }
    for (const index_t v : *ps.needed) {
      if (waiting[static_cast<std::size_t>(v)] != 0) {
        agg.append(ps.rank, {epoch, kMsgReq, v});
      }
    }
  };
  // One ROWS frame, [epoch, ROWS, v, deg, cols...] copied straight from
  // the shard's CSR, or the handshake [epoch, ROWS].
  const auto post_reply = [&](index_t to, word_t frame_epoch, index_t key) {
    if (key == kHandshake) {
      agg.append(to, {frame_epoch, kMsgRows});
      return;
    }
    const auto cols = shard.rows.row_cols(shard.local(key));
    const auto deg = static_cast<word_t>(cols.size());
    agg.append(to, {frame_epoch, kMsgRows, key, deg}, cols);
  };

  const auto start = clock::now();
  const auto hard_deadline = start + retry_horizon(cfg);
  for (auto& ps : peers) {
    post_requests(ps);
    ps.req_timeout = cfg.timeout;
    ps.req_deadline = clock::now() + ps.req_timeout;
  }
  agg.flush_all(); // phase boundary: all initial requests posted

  std::size_t awaiting_replies = peers.size();
  const auto quiescent = [&] {
    return awaiting_replies == 0 &&
           std::all_of(peers.begin(), peers.end(),
                       [](const PeerState& ps) { return ps.settled(); });
  };
  std::size_t done_count = 0;
  bool done_sent = false;
  const auto announce_done = [&] {
    if (done_sent) return;
    for (const auto& ps : peers) {
      // kronlab-analyze: allow(dist-send) quiescence control frames ride
      // the reliable negative-tag channel, not the aggregated data tag.
      comm.send(ps.rank, kExchCtlTag, {epoch, kMsgDone});
    }
    done_sent = true;
  };
  const auto mark_done = [&](PeerState& ps) {
    if (ps.done) return;
    ps.done = true;
    ++done_count;
  };
  // Stale-epoch DONEs are stragglers from an earlier exchange: discarded.
  const auto is_done = [&](const Message& m) {
    return m.size() >= 2 && m[0] == epoch && m[1] == kMsgDone;
  };
  const auto poll_done = [&](PeerState& ps) {
    while (!ps.done) {
      const auto d =
          comm.recv_deadline(ps.rank, kExchCtlTag, milliseconds(0));
      if (!d) return;
      if (is_done(*d)) mark_done(ps);
    }
  };

  clock::time_point wire_time; // arrival of the wire message in hand
  // ACK keys of the wire message in hand, each with the epoch of the ROWS
  // frame it answers, and those epochs in first-seen order; both are
  // reused across wire messages.
  std::vector<std::pair<word_t, word_t>> acks;
  std::vector<word_t> ack_epochs;
  const auto handle_frame = [&](index_t from, Aggregator::Frame msg) {
    KRONLAB_REQUIRE(msg.size() >= 2, "malformed exchange message");
    const word_t msg_epoch = msg[0];
    const word_t type = msg[1];
    const std::size_t pos = peer_pos[static_cast<std::size_t>(from)];
    PeerState* ps = pos < peers.size() ? &peers[pos] : nullptr;
    if (type == kMsgReq) {
      KRONLAB_REQUIRE(msg.size() <= 3, "malformed REQ frame");
      if (ps && msg_epoch == epoch) {
        // The empty handshake means the peer needs none of our rows.
        const index_t key =
            msg.size() == 2 ? kHandshake : static_cast<index_t>(msg[2]);
        KRONLAB_REQUIRE(key == kHandshake || shard.owns(key),
                        "request routed to wrong owner");
        ps->served = true;
        auto& state = reply_state(*ps, key);
        if (state == kUnserved) {
          ps->served_keys.push_back(key);
          state = ps->done ? kAcked : kUnacked;
          if (!ps->done && ps->unacked++ == 0) {
            // First outstanding reply: start the ack clock afresh.
            ps->reply_attempts = 0;
            ps->ack_timeout = cfg.timeout;
            ps->ack_deadline = wire_time + ps->ack_timeout;
          }
        } else {
          // Retried request (the original REQ or our ROWS frame was
          // lost): re-serve the row idempotently.
          ++stats.dup_requests;
          note_protocol("exchange/dup_request", comm.rank(), from, epoch,
                        ps->reply_attempts);
        }
        post_reply(from, epoch, key);
      } else {
        // Straggler from an earlier exchange (or a non-member): serve
        // whatever we still own, stamped with *its* epoch — the sender
        // absorbs or ignores it by sequence number.
        if (msg.size() == 2) {
          post_reply(from, msg_epoch, kHandshake);
        } else if (const auto v = static_cast<index_t>(msg[2]);
                   shard.owns(v)) {
          post_reply(from, msg_epoch, v);
        } // not owned: stale request predating a row reassignment
      }
    } else if (type == kMsgRows) {
      bool fresh = false;
      index_t key = kHandshake;
      Aggregator::Frame cols;
      if (msg.size() > 2) {
        KRONLAB_REQUIRE(msg.size() >= 4, "malformed ROWS frame");
        key = static_cast<index_t>(msg[2]);
        KRONLAB_REQUIRE(msg.size() == 4 + static_cast<std::size_t>(msg[3]),
                        "malformed ROWS frame");
        // The wedge engine indexes an n-sized table with these columns and
        // stops each scan early, so they must be sorted ids in [0, n).
        cols = msg.subspan(4);
        KRONLAB_REQUIRE(
            cols.empty() ||
                (cols.front() >= 0 && cols.back() < shard.n &&
                 std::adjacent_find(cols.begin(), cols.end(),
                                    std::greater_equal<>()) == cols.end()),
            "malformed ROWS frame");
      }
      if (ps && msg_epoch == epoch) {
        if (key == kHandshake) {
          fresh = !ps->got_rows;
        } else if (key >= ps->row_begin && key < ps->row_end &&
                   waiting[static_cast<std::size_t>(key)] != 0) {
          const auto v = static_cast<std::size_t>(key);
          waiting[v] = 0;
          --ps->missing;
          ghost.offset[v] = ghost.cols.size();
          ghost.length[v] = static_cast<index_t>(cols.size());
          ghost.cols.insert(ghost.cols.end(), cols.begin(), cols.end());
          fresh = true;
          // The request deadline detects silence, not a bulk transfer
          // still streaming in: each fresh row pushes it out.
          ps->req_deadline = wire_time + ps->req_timeout;
        }
        ps->got_rows = true;
        if (!ps->have_reply && ps->missing == 0) {
          ps->have_reply = true;
          --awaiting_replies;
        }
      }
      if (!fresh) {
        ++stats.dup_replies;
        note_protocol("exchange/dup_reply", comm.rank(), from, msg_epoch, 0);
      }
      // Always (re-)ack, naming the row, with the frame's own epoch so a
      // responder stuck on a lost ack from an earlier exchange can retire
      // it.  Acks are collected per wire message (below), one frame per
      // distinct epoch, so a re-served batch triggers one ack frame rather
      // than an ack storm.
      if (std::find(ack_epochs.begin(), ack_epochs.end(), msg_epoch) ==
          ack_epochs.end()) {
        ack_epochs.push_back(msg_epoch);
      }
      acks.emplace_back(msg_epoch, key);
    } else if (type == kMsgAck) {
      KRONLAB_REQUIRE(msg.size() >= 3, "malformed ACK frame");
      if (ps && msg_epoch == epoch) {
        bool progress = false;
        for (std::size_t k = 2; k < msg.size(); ++k) {
          const auto key = static_cast<index_t>(msg[k]);
          if (key != kHandshake && !shard.owns(key)) continue;
          auto& state = reply_state(*ps, key);
          if (state == kUnacked) {
            state = kAcked;
            --ps->unacked;
            progress = true;
          }
        }
        if (progress && ps->unacked > 0) {
          // Acks are still streaming in: the resend budget counts only
          // rounds without progress.
          ps->reply_attempts = 0;
          ps->ack_deadline = wire_time + ps->ack_timeout;
        }
      }
    } else {
      KRONLAB_REQUIRE(false, "unknown exchange message type");
    }
  };

  // Process one wire message — all frames of a batch, or a lone raw
  // frame — then flush whatever replies/acks it produced: one ACK frame
  // [epoch, ACK, keys...] per distinct epoch, in first-seen order.
  std::vector<word_t> ack_keys;
  const auto handle_wire = [&](index_t from) {
    acks.clear();
    ack_epochs.clear();
    wire_time = clock::now();
    for (const auto frame : agg.frames()) handle_frame(from, frame);
    for (const word_t e : ack_epochs) {
      ack_keys.clear();
      for (const auto& [ack_epoch, key] : acks) {
        if (ack_epoch == e) ack_keys.push_back(key);
      }
      agg.append(from, {e, kMsgAck}, ack_keys);
    }
    agg.flush_all();
  };

  for (;;) {
    const bool lingering = quiescent();
    if (lingering) {
      // Locally quiescent: announce, then collect the peers' DONEs.  Until
      // now a DONE could not end the loop, so it waited queued on the
      // reliable control channel instead of being polled every iteration.
      announce_done();
      for (auto& ps : peers) poll_done(ps);
    }
    for (auto& ps : peers) {
      if (!ps.done && !comm.rank_alive(ps.rank)) {
        mark_done(ps); // a dead peer will never announce
      }
    }
    if (done_count == peers.size() && quiescent()) break;
    const auto now = clock::now();
    if (now > hard_deadline) {
      std::string detail;
      for (const auto& ps : peers) {
        detail += " peer" + std::to_string(ps.rank) +
                  "[reply=" + std::to_string(ps.have_reply) +
                  ",served=" + std::to_string(ps.served) +
                  ",unacked=" + std::to_string(ps.unacked) +
                  ",done=" + std::to_string(ps.done) + "]";
      }
      throw timeout_error("ghost-row exchange did not quiesce within the "
                          "retry horizon (rank " +
                          std::to_string(comm.rank()) + ":" + detail + ")");
    }
    // Earliest pending deadline, capped so liveness is re-checked often.
    // Nothing is buffered in the aggregator here: every append above was
    // followed by a flush_all(), so a blocking receive strands no frame.
    auto next = now + cfg.timeout;
    for (const auto& ps : peers) {
      if (!ps.have_reply) next = std::min(next, ps.req_deadline);
      if (!ps.done && ps.unacked > 0) next = std::min(next, ps.ack_deadline);
    }
    auto wait = std::chrono::duration_cast<milliseconds>(
        std::max(next - clock::now(), clock::duration::zero()));
    if (lingering && done_count < peers.size()) {
      // Lingering: only DONEs — and, under faults, a straggler's retried
      // request — can still arrive.  Serve queued data frames first;
      // otherwise block on the control channel of the first peer that
      // owes DONE, so its arrival ends the wait at once.
      if (const auto from = agg.recv(milliseconds(0))) {
        handle_wire(*from);
        continue;
      }
      auto& ps = *std::find_if(peers.begin(), peers.end(),
                               [](const PeerState& p) { return !p.done; });
      if (const auto d = comm.recv_deadline(ps.rank, kExchCtlTag, wait);
          d && is_done(*d)) {
        mark_done(ps);
      }
      wait = milliseconds(0);
    }
    if (const auto from = agg.recv(wait)) {
      handle_wire(*from);
      continue;
    }
    // Deadline sweep.
    const auto t = clock::now();
    for (auto& ps : peers) {
      if (!ps.have_reply && t >= ps.req_deadline) {
        if (!comm.rank_alive(ps.rank)) {
          throw rank_failed("rank " + std::to_string(ps.rank) +
                            " died while rank " +
                            std::to_string(comm.rank()) +
                            " still needed its ghost rows");
        }
        stats.backoff_seconds +=
            static_cast<double>(ps.req_timeout.count()) / 1e3;
        if (++ps.req_attempts > cfg.max_retries) {
          throw timeout_error(
              "ghost-row request to live rank " + std::to_string(ps.rank) +
              " unanswered after " + std::to_string(cfg.max_retries) +
              " retries (rank " + std::to_string(comm.rank()) + ")");
        }
        ++stats.retries;
        static obs::Counter& retry_counter =
            obs::counter("dist/exchange_retries");
        retry_counter.add();
        note_protocol("exchange/retry", comm.rank(), ps.rank, epoch,
                      ps.req_attempts);
        post_requests(ps); // only still-waiting rows ride the retry
        ps.req_timeout = backed_off(ps.req_timeout, cfg);
        ps.req_deadline = t + ps.req_timeout;
      }
      if (!ps.done && ps.unacked > 0 && t >= ps.ack_deadline) {
        // A dead peer needs no resend, and neither does one that
        // announced DONE, whatever ACKs of ours it lost: only here, at an
        // expired ack deadline, is its control channel read before this
        // rank is quiescent.
        if (!comm.rank_alive(ps.rank)) {
          mark_done(ps);
        } else {
          poll_done(ps);
        }
        if (ps.done) continue;
        stats.backoff_seconds +=
            static_cast<double>(ps.ack_timeout.count()) / 1e3;
        if (++ps.reply_attempts > cfg.max_retries) {
          throw timeout_error(
              "reply to live rank " + std::to_string(ps.rank) +
              " never acked after " + std::to_string(cfg.max_retries) +
              " resends (rank " + std::to_string(comm.rank()) + ")");
        }
        ++stats.reply_resends;
        note_protocol("exchange/resend", comm.rank(), ps.rank, epoch,
                      ps.reply_attempts);
        // Resends stay row-granular: only replies the peer has not acked.
        for (const index_t key : ps.served_keys) {
          if (reply_state(ps, key) == kUnacked) post_reply(ps.rank, epoch, key);
        }
        ps.ack_timeout = backed_off(ps.ack_timeout, cfg);
        ps.ack_deadline = t + ps.ack_timeout;
      }
    }
    agg.flush_all(); // phase boundary: retry sweep finished
  }
  // Local quiescence can be reached mid-iteration (handle_wire() or the
  // sweep clears the last pending ack and the loop condition re-evaluates
  // before the top-of-loop announcement runs) — peers still wait for it.
  announce_done();
  agg.flush_all(); // drain before folding the flush-reason counters
  stats.agg.merge(agg.stats());
  return ghost;
}

} // namespace

count_t distributed_global_butterflies(Comm& comm, const Shard& shard,
                                       const RetryConfig& retry,
                                       ExchangeStats* stats) {
  KRONLAB_TRACE_SPAN("dist", "distributed_butterflies");
  const word_t epoch = comm.next_epoch();
  const auto members = comm.live_ranks();
  const auto mcount = members.size();

  // Every member learns the member-ordered global row layout; validate
  // that the live shards really cover [0, n) contiguously.
  const auto row_begins = comm.allgather(shard.row_begin, members);
  const auto row_ends = comm.allgather(shard.row_end, members);
  KRONLAB_REQUIRE(row_begins.front() == 0,
                  "live shards do not start at row 0");
  for (std::size_t i = 0; i < mcount; ++i) {
    const word_t next = i + 1 < mcount
                            ? row_begins[i + 1]
                            : static_cast<word_t>(shard.n);
    KRONLAB_REQUIRE(row_ends[i] == next,
                    "live shards do not cover the row space contiguously");
  }

  // A fault plan can kill a rank here — after membership agreement, right
  // before it starts serving ghost rows — to exercise the rank_failed
  // path: survivors retry, see the death, and surface the typed error.
  comm.fault_point("exchange-serve");

  // ---- phase 1: figure out which remote rows this rank needs ----------
  // Phase 3 walks row j only for a middle j < i of an owned row i, and
  // every id in [row_begin, i) is owned, so the only rows it reads from
  // other ranks are columns below row_begin, all owned by lower-ranked
  // members; the higher-ranked ones get the empty handshake.  One n-sized
  // mark array over those columns; scanning each owner's row range then
  // lists its needed rows in ascending order.  The marks go on to serve
  // as the exchange's waiting table.
  std::vector<std::uint8_t> waiting(static_cast<std::size_t>(shard.n), 0);
  std::vector<std::vector<index_t>> needed(mcount);
  {
    KRONLAB_KERNEL("dist/needed");
    for (const index_t j : shard.rows.col_idx()) {
      if (j < shard.row_begin) waiting[static_cast<std::size_t>(j)] = 1;
    }
    for (std::size_t i = 0; i < mcount; ++i) {
      if (members[i] == comm.rank()) continue;
      for (auto v = static_cast<index_t>(row_begins[i]); v < row_ends[i];
           ++v) {
        if (waiting[static_cast<std::size_t>(v)] != 0) needed[i].push_back(v);
      }
    }
  }

  // ---- phase 2: fault-tolerant ghost-row exchange ---------------------
  ExchangeStats local_stats;
  const auto ghost =
      exchange_ghost_rows(comm, shard, members, row_begins, row_ends,
                          waiting, needed, epoch, retry, local_stats);
  if (stats) *stats = local_stats;
  // The exchange quiesced, but a member may have died after serving us;
  // the reduction below needs every member, so surface it as a typed
  // failure instead of hanging.
  for (const index_t r : members) {
    if (!comm.rank_alive(r)) {
      throw rank_failed("rank " + std::to_string(r) +
                        " died during the ghost-row exchange");
    }
  }

  // ---- phase 3: the wedge engine over owned rows ---------------------
  // Owned-plus-ghost rows: every row an owned row's wedges walk (a ghost
  // row is always below row_begin; see phase 1).
  count_t local_sum = 0;
  {
    KRONLAB_KERNEL("dist/wedge_count");
    local_sum = graph::largest_id_c4_sum(
        shard.n, shard.row_begin, shard.row_end, [&](index_t j) {
          return shard.owns(j) ? shard.rows.row_cols(shard.local(j))
                               : ghost.row(j);
        });
  }

  // Each 4-cycle is counted once, by the owner of its largest id.
  return comm.allreduce_sum(local_sum, members);
}

namespace {

count_t ground_truth_squares_impl(Comm& comm,
                                  const kron::BipartiteKronecker& kp,
                                  index_t lo, index_t hi,
                                  const std::vector<index_t>* members) {
  KRONLAB_TRACE_SPAN("dist", "ground_truth_squares");
  // Rank-local share of Σ_p s_C(p): the factored sum restricted to owned
  // left-factor rows — Σ_s c_s · (Σ_{i owned} g_s[i]) · sum(h_s).
  const auto sv = kron::vertex_squares(kp);
  count_t local = 0;
  for (const auto& term : sv.terms()) {
    count_t g_part = 0;
    for (index_t i = lo; i < hi; ++i) g_part += term.g[i];
    local += term.coeff * g_part * grb::reduce(term.h);
  }
  const count_t total = members ? comm.allreduce_sum(local, *members)
                                : comm.allreduce_sum(local);
  KRONLAB_DBG_ASSERT(total % (sv.divisor() * 4) == 0,
                     "factored sum not divisible");
  return total / sv.divisor() / 4;
}

} // namespace

count_t distributed_ground_truth_squares(
    Comm& comm, const kron::BipartiteKronecker& kp,
    const kron::PartitionedStream& ps) {
  const auto [lo, hi] = ps.owned_left_rows(comm.rank());
  return ground_truth_squares_impl(comm, kp, lo, hi, nullptr);
}

count_t distributed_ground_truth_squares(
    Comm& comm, const kron::BipartiteKronecker& kp,
    std::pair<index_t, index_t> owned_left_rows,
    const std::vector<index_t>& members) {
  return ground_truth_squares_impl(comm, kp, owned_left_rows.first,
                                   owned_left_rows.second, &members);
}

RecoveryReport supervised_global_butterflies(
    Comm& comm, const kron::BipartiteKronecker& kp,
    const kron::PartitionedStream& ps, io::FileOps& ops,
    const std::string& dir, const RetryConfig& retry) {
  KRONLAB_TRACE_SPAN("dist", "supervised_butterflies");
  KRONLAB_REQUIRE(ps.parts() == comm.size(),
                  "partition width must equal the rank count");
  const index_t me = comm.rank();
  const index_t nb = kp.right().nrows();

  // ---- phase 1: load this rank's shard (kills happen in here) ---------
  Shard shard = load_shard_impl(ops, dir, kp, ps, me, &comm);
  auto [my_llo, my_lhi] = ps.owned_left_rows(me);

  // A dead rank never reaches this barrier; the runtime releases it for
  // the survivors once the death is recorded.
  comm.barrier();

  // ---- phase 2: supervisor view — detect deaths, reassign rows --------
  const auto members = comm.live_ranks();
  KRONLAB_REQUIRE(members.front() == 0, "supervisor (rank 0) must survive");
  count_t rows_reassigned = 0;
  if (static_cast<index_t>(members.size()) < comm.size()) {
    // Ownership heals by extension: each survivor's range grows to the
    // next survivor's begin, absorbing the dead ranks in between, whose
    // shards it loads from the store in order.
    const auto pos = static_cast<std::size_t>(
        std::lower_bound(members.begin(), members.end(), me) -
        members.begin());
    const index_t new_lhi =
        pos + 1 < members.size()
            ? ps.owned_left_rows(members[pos + 1]).first
            : kp.left().nrows();
    if (new_lhi > my_lhi) {
      KRONLAB_TRACE_SPAN("dist", "reassign_rows");
      grb::Array<offset_t> row_ptr = shard.rows.row_ptr();
      grb::Array<index_t> cols = shard.rows.col_idx();
      cols.reserve(static_cast<std::size_t>(
          expected_entries(kp, my_llo, new_lhi)));
      for (index_t d = me + 1; d < comm.size() && !comm.rank_alive(d);
           ++d) {
        push_csr_rows(row_ptr, cols,
                      load_shard_impl(ops, dir, kp, ps, d, nullptr).rows);
        const auto [dlo, dhi] = ps.owned_left_rows(d);
        rows_reassigned += dhi - dlo;
      }
      my_lhi = new_lhi;
      shard.row_end = new_lhi * nb;
      shard.rows = shard_csr(shard.n, std::move(row_ptr), std::move(cols));
    }
  }

  // ---- phase 3: resilient exchange + distributed count ----------------
  ExchangeStats xs;
  const count_t counted =
      distributed_global_butterflies(comm, shard, retry, &xs);

  // ---- phase 4: ground-truth self-verification ------------------------
  // The factored oracle (Thms 3–5) is cheap enough to re-evaluate after
  // every recovery: a corrupted or mis-recovered shard cannot produce a
  // bit-identical global count *and* a matching entry census.
  KRONLAB_TRACE_SPAN("dist", "self_verify");
  const count_t truth = distributed_ground_truth_squares(
      comm, kp, {my_llo, my_lhi}, members);
  const bool local_entries_ok =
      shard.rows.nnz() == expected_entries(kp, my_llo, my_lhi);
  const word_t bad_shards =
      comm.allreduce_sum(local_entries_ok ? 0 : 1, members);

  // ---- report: aggregate protocol counters across survivors -----------
  comm.barrier(); // quiesce before reading global fault counters
  RecoveryReport report;
  report.ranks = comm.size();
  for (index_t r = 0; r < comm.size(); ++r) {
    if (!comm.rank_alive(r)) report.dead_ranks.push_back(r);
  }
  report.faults = comm.fault_stats();
  report.exchange.retries = comm.allreduce_sum(xs.retries, members);
  report.exchange.reply_resends =
      comm.allreduce_sum(xs.reply_resends, members);
  report.exchange.dup_requests =
      comm.allreduce_sum(xs.dup_requests, members);
  report.exchange.dup_replies =
      comm.allreduce_sum(xs.dup_replies, members);
  report.exchange.backoff_seconds =
      static_cast<double>(comm.allreduce_sum(
          static_cast<word_t>(xs.backoff_seconds * 1e6), members)) /
      1e6;
  report.exchange.agg.frames_enqueued =
      comm.allreduce_sum(xs.agg.frames_enqueued, members);
  report.exchange.agg.rows_coalesced =
      comm.allreduce_sum(xs.agg.rows_coalesced, members);
  report.exchange.agg.single_flushes =
      comm.allreduce_sum(xs.agg.single_flushes, members);
  report.exchange.agg.batches_sent =
      comm.allreduce_sum(xs.agg.batches_sent, members);
  report.exchange.agg.capacity_flushes =
      comm.allreduce_sum(xs.agg.capacity_flushes, members);
  report.exchange.agg.manual_flushes =
      comm.allreduce_sum(xs.agg.manual_flushes, members);
  report.left_rows_reassigned =
      comm.allreduce_sum(rows_reassigned, members);
  report.counted = counted;
  report.ground_truth = truth;
  report.shard_stats_ok = bad_shards == 0;
  report.verified = report.shard_stats_ok && counted == truth;
  return report;
}

} // namespace kronlab::dist
