// kronlab/dist/aggregator.hpp
//
// Per-destination message aggregation for the distributed runtime — the
// Grappa RDMAAggregator idiom scaled to kronlab's simulated ranks.
//
// Why it exists: the ghost-row exchange in dist/sharded.cpp is naturally
// row-granular — one request, one row payload, one ack per ghost row —
// and at high rank counts the per-message envelope cost (an MPI header
// and injection-rate slot in production; a mailbox lock + allocation in
// the simulated runtime) dominates the bytes actually moved.  Grappa's
// answer is to coalesce many small application messages bound for the
// same destination into large buffers; the application keeps its
// small-message programming model and the wire carries big frames.
//
// This layer does exactly that over Comm: callers enqueue *frames*
// (ordinary Message payloads) per destination rank; the aggregator packs
// them into one batched wire message per flush.  Flushes happen on
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
// magic unambiguous on the receive side.
//
// Delivery guarantees are exactly Comm's: frames for one destination are
// delivered in enqueue order (they ride one tag in FIFO order), and a
// dropped batch drops all its frames — the exchange's epoch/seq retry
// protocol treats that the same as dropped single messages, and its
// per-row dedup absorbs a retried batch row by row.

#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "kronlab/common/registry.hpp"
#include "kronlab/common/types.hpp"
#include "kronlab/dist/comm.hpp"

namespace kronlab::dist {

/// Flush-reason and coalescing counters, surfaced through
/// ExchangeStats/RecoveryReport.
struct AggregatorStats {
  count_t frames_enqueued = 0;  ///< frames handed to enqueue()
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

  Aggregator(Comm& comm, int tag);
  ~Aggregator();

  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  /// Buffer `frame` for rank `to`; flushes the destination's buffer first
  /// when adding the frame would exceed kCapacityWords, and after adding
  /// it when the buffer reaches kCapacityWords (capacity flushes).
  void enqueue(index_t to, Message frame);

  /// Flush one destination / all destinations now (manual flush).
  void flush(index_t to);
  void flush_all();

  /// Receive the next wire message on the tag (via Comm::recv_any) and
  /// return its frames: a batch is unpacked into its constituent frames,
  /// a raw message comes back as a single frame.
  std::optional<std::pair<index_t, std::vector<Message>>> recv_frames(
      std::chrono::milliseconds timeout);

  [[nodiscard]] const AggregatorStats& stats() const { return stats_; }

  // -- wire format (exposed for tests and the protocol's validation) ----

  /// First word of a batched wire message.  Raw frames must start with a
  /// non-negative word.
  static constexpr word_t kBatchMagic = magic::kBatchWord;

  [[nodiscard]] static bool is_batch(const Message& msg);

  /// Split a batched message into frames; throws protocol-shaped
  /// invalid_argument (KRONLAB_REQUIRE) on malformed framing.
  [[nodiscard]] static std::vector<Message> unpack(const Message& msg);

private:
  struct Buffer {
    std::vector<Message> frames;
    std::size_t words = 0; ///< payload words buffered
  };

  enum class FlushReason { capacity, manual };
  void flush_buffer(index_t to, Buffer& buf, FlushReason reason);

  Comm& comm_;
  int tag_;
  AggregatorStats stats_;
  // Destination buffers, keyed by rank.  A rank count is small (the
  // simulated runtime tops out at tens of ranks), so a flat vector
  // indexed by rank beats a hash map on every enqueue.
  std::vector<Buffer> buffers_;
};

} // namespace kronlab::dist
