// kronlab/dist/aggregator.hpp
//
// Per-destination message aggregation for the distributed runtime — the
// Grappa RDMAAggregator idiom scaled to kronlab's simulated ranks.
//
// Why it exists: the ghost-row exchange in dist/sharded.cpp is naturally
// row-granular — one request, one row payload, one ack per ghost row —
// and at high rank counts the per-message envelope cost (an MPI header
// and injection-rate slot in production; a mailbox lock and wakeup in
// the simulated runtime) dominates the bytes actually moved.  Grappa's
// answer is to coalesce many small application messages bound for the
// same destination into large buffers; the application keeps its
// small-message programming model and the wire carries big frames.
//
// This layer does exactly that over Comm: callers append *frames* per
// destination rank, and each frame's words land in place in that rank's
// one flat wire buffer, already framed as a batch.  Flushes happen on
//
//   * capacity  — a destination's buffered payload reaches kCapacityWords,
//   * flush     — an explicit flush()/flush_all() at a protocol phase
//                 boundary (requests posted, wire message handled, retry
//                 sweep finished).
//
// There is no age-based flush: the exchange flushes every buffer before
// it can block again, so no frame waits in a buffer across a receive
// (DESIGN.md §13).
//
// A buffer holding exactly one frame is sent raw — byte-identical to an
// unbatched send — so aggregation never pessimizes sparse traffic.
// Batches are framed [kBatchMagic, n, {len, words...} x n]; raw frames
// are required to start with a non-negative word (the exchange protocol
// starts every frame with its positive epoch), which is what makes the
// magic unambiguous on the receive side.  A received wire message is
// split into frames as views into it: no frame is copied out.
//
// Delivery guarantees are exactly Comm's: frames for one destination are
// delivered in append order (they ride one tag in FIFO order), and a
// dropped batch drops all its frames — the exchange's epoch/seq retry
// protocol treats that the same as dropped single messages, and its
// per-row dedup absorbs a retried batch row by row.

#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "kronlab/common/registry.hpp"
#include "kronlab/common/types.hpp"
#include "kronlab/dist/comm.hpp"

namespace kronlab::dist {

/// Flush-reason and coalescing counters, surfaced through
/// ExchangeStats/RecoveryReport.
struct AggregatorStats {
  count_t frames_enqueued = 0;  ///< frames handed to append()
  count_t rows_coalesced = 0;   ///< frames that shipped inside a batch
  count_t single_flushes = 0;   ///< frames that shipped raw (buffer of 1)
  count_t batches_sent = 0;     ///< multi-frame wire messages sent
  count_t capacity_flushes = 0; ///< flushes triggered by kCapacityWords
  count_t manual_flushes = 0;   ///< flush()/flush_all()/destructor flushes

  /// Fold `other` into this (plain sums).
  void merge(const AggregatorStats& other);
};

/// Per-destination frame aggregator over one Comm tag.  Single-threaded
/// by design: it lives inside one rank's protocol event loop, like every
/// Comm handle.  The destructor flushes anything still buffered.
class Aggregator {
public:
  /// Flush-on-capacity threshold: 2048 words (16 KiB) keep several row
  /// payloads per wire message on the bench instances.
  static constexpr std::size_t kCapacityWords = 2048;

  /// A received frame: a view into the wire message that carried it.
  using Frame = std::span<const word_t>;

  Aggregator(Comm& comm, int tag);
  ~Aggregator();

  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  /// Buffer the frame `head ++ tail` for rank `to`, appending its words
  /// in place to the destination's wire buffer (a row reply passes the
  /// row's columns as `tail`, straight from the CSR).  Flushes the buffer
  /// first when adding the frame would exceed kCapacityWords, and after
  /// adding it when the buffer reaches kCapacityWords (capacity flushes).
  void append(index_t to, std::span<const word_t> head,
              std::span<const word_t> tail = {});
  void append(index_t to, std::initializer_list<word_t> head,
              std::span<const word_t> tail = {}) {
    append(to, std::span<const word_t>(head.begin(), head.size()), tail);
  }

  /// Flush one destination / all destinations now (manual flush).
  void flush(index_t to);
  void flush_all();

  /// Receive the next wire message on the tag (via Comm::recv_any) and
  /// return its sender.  frames() then views its frames — a batch's
  /// frames in order, or a raw message as one frame — until the next
  /// recv().
  std::optional<index_t> recv(std::chrono::milliseconds timeout);
  [[nodiscard]] std::span<const Frame> frames() const { return frames_; }

  [[nodiscard]] const AggregatorStats& stats() const { return stats_; }

  // -- wire format (exposed for tests and the protocol's validation) ----

  /// First word of a batched wire message.  Raw frames must start with a
  /// non-negative word.
  static constexpr word_t kBatchMagic = magic::kBatchWord;

  [[nodiscard]] static bool is_batch(std::span<const word_t> msg);

  /// Replace `frames` with views of `msg`'s frames: a batch's frames in
  /// order, or `msg` itself when it is raw.  Throws protocol-shaped
  /// invalid_argument (KRONLAB_REQUIRE) on malformed framing.  The
  /// untrusted count and lengths are checked against msg.size() before
  /// they bound any work, so the cost is O(msg.size()).
  static void split(std::span<const word_t> msg, std::vector<Frame>& frames);

private:
  /// One destination's wire buffer, [kBatchMagic, n, {len, words...}...]
  /// once it holds a frame (the count word is filled in at flush).
  struct Buffer {
    Message wire;
    std::size_t frames = 0; ///< frames buffered
    std::size_t words = 0;  ///< payload words buffered
  };

  enum class FlushReason { capacity, manual };
  void flush_buffer(index_t to, Buffer& buf, FlushReason reason);

  Comm& comm_;
  int tag_;
  AggregatorStats stats_;
  // Destination buffers, keyed by rank.  A rank count is small (the
  // simulated runtime tops out at tens of ranks), so a flat vector
  // indexed by rank beats a hash map on every append.
  std::vector<Buffer> buffers_;
  Message received_;          ///< the wire message frames_ views
  std::vector<Frame> frames_; ///< reused across receives
};

} // namespace kronlab::dist
