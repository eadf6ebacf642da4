// kronlab/io/durable.hpp
//
// Durable sharded edge output: KRNLSEG2 segments + a KRNLMAN1 manifest.
//
// The crash-tolerance backbone of extreme-scale streaming generation
// (io/stream_gen.hpp): a multi-hour run must survive a kill at any
// instruction boundary losing at most one uncommitted segment.
//
// KRNLSEG2 segment file (little-endian 64-bit words after an 8-byte
// magic, around a byte payload of varints):
//
//   "KRNLSEG2" | spec_hash | shard | seg_index | first_edge | num_edges
//   | payload_bytes | varints, zero-padded to a word
//   | fnv1a64_words(header..padded payload)
//
// Each record is the zigzag LEB128 varint of p − p_prev followed by that
// of q − q_prev, starting from (0, 0) at every segment, so a segment
// decodes on its own.  Records arrive row-major with ascending columns,
// so a record costs ~2 bytes; ids in [0, 2^40] bound it at 12.  The
// trailing FNV-1a word covers every word between the magic and itself,
// so a torn or bit-flipped segment is detected before any record is
// decoded; the decoder then rejects an over-long or overflowing varint,
// records that do not fill payload_bytes exactly, a non-zero pad byte
// and any id outside [0, 2^40].  `first_edge` is the edge ordinal within
// the shard's deterministic stream — segments of one shard tile
// [0, edges) exactly.
//
// Commit protocol (all through io/file_ops.hpp):
//
//   1. the segment is written to `<final>.tmp`, fsync'd, and sealed by an
//      atomic rename to its final name — a crash mid-write leaves only a
//      `.tmp` the resume scan deletes;
//   2. the manifest is rewritten (same write-temp → fsync → rename
//      dance) recording the new per-shard committed state.
//
// KRNLMAN1 manifest:
//
//   "KRNLMAN1" | version (3) | spec_hash | shards | segment_edges
//   | total_edges | per shard: (segments, edges, chain_hash)
//   | fnv1a64_words(all preceding words)
//
// `chain_hash` is the word-folded FNV-1a of the shard's committed padded
// payload words, folded segment after segment — the checksum over the
// concatenated committed segments that the kill/resume matrix compares
// against an uninterrupted run.  The stream cursor of shard s is simply
// (s, edges_s): generation resumes at that edge ordinal.
//
// Resume invariants (scan_store):
//   * the manifest, if present, must parse, checksum, and match the
//     spec hash / shard count / segment size of the resuming run;
//   * every committed segment must exist, checksum, and chain-hash to
//     the manifest's record — anything else is a validation_error (the
//     store is corrupt, not merely behind);
//   * a sealed segment PAST the committed range is adopted iff it is the
//     exact next segment (index, first_edge, spec hash, checksum all
//     match) — the crash-between-seal-and-manifest-commit window;
//     otherwise it is deleted and regenerated;
//   * `.tmp` files are always deleted.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "kronlab/common/checksum.hpp"
#include "kronlab/common/types.hpp"
#include "kronlab/io/file_ops.hpp"

namespace kronlab::io {

struct SegmentHeader {
  std::uint64_t spec_hash = 0;
  index_t shard = 0;
  count_t seg_index = 0;  ///< 0-based, dense per shard
  count_t first_edge = 0; ///< shard-stream ordinal of the first record
  count_t num_edges = 0;
};

/// Words before a KRNLSEG2 payload: the magic and the six header words.
inline constexpr std::size_t kSegmentHeadWords = 7;
inline constexpr std::size_t kSegmentHeadBytes =
    kSegmentHeadWords * sizeof(std::int64_t);

/// Longest encoded record: two 10-byte varints (any int64 delta).
inline constexpr std::size_t kMaxRecordBytes = 20;

/// One segment's file image, encoded in place: records go straight into
/// the bytes publish_segment writes, and the buffer is reused from seal
/// to seal.
class SegmentBuffer {
public:
  explicit SegmentBuffer(count_t capacity);

  void push(index_t p, index_t q) {
    if (bytes_.size() - end_ < kMaxRecordBytes) grow();
    unsigned char* at = bytes_.data() + end_;
    at = put_delta(at, p, prev_p_);
    at = put_delta(at, q, prev_q_);
    end_ = static_cast<std::size_t>(at - bytes_.data());
    prev_p_ = p;
    prev_q_ = q;
    ++num_edges_;
  }

  [[nodiscard]] count_t num_edges() const { return num_edges_; }

  /// Stamp `header` (its num_edges must equal num_edges()), pad the
  /// payload to a word and append the trailer.  One pass over the padded
  /// payload folds the payload hash (returned), the trailer checksum, and
  /// `chain` — the shard's running chain hash, advanced in place.
  [[nodiscard]] std::uint64_t seal(const SegmentHeader& header,
                                   std::uint64_t& chain);

  /// The sealed file image.
  [[nodiscard]] const void* data() const { return bytes_.data(); }
  [[nodiscard]] std::size_t size_bytes() const { return end_; }
  [[nodiscard]] const SegmentHeader& header() const { return header_; }

  /// Drop the records (and trailer), keeping the allocation.
  void clear();

private:
  /// Append the zigzag LEB128 varint of v − prev.
  static unsigned char* put_delta(unsigned char* at, index_t v,
                                  index_t prev) {
    const auto d = static_cast<std::uint64_t>(v) -
                   static_cast<std::uint64_t>(prev);
    std::uint64_t z = (d << 1) ^ (0 - (d >> 63));
    while (z >= 0x80) {
      *at++ = static_cast<unsigned char>(z | 0x80);
      z >>= 7;
    }
    *at++ = static_cast<unsigned char>(z);
    return at;
  }

  void grow();

  SegmentHeader header_;
  std::vector<unsigned char> bytes_; ///< file image; [0, end_) is live
  std::size_t end_ = kSegmentHeadBytes;
  count_t num_edges_ = 0;
  index_t prev_p_ = 0;
  index_t prev_q_ = 0;
};

/// One decoded segment: its header and its records, decoded once.
struct SegmentData {
  SegmentHeader header;
  std::vector<index_t> records;           ///< p0, q0, p1, q1, ...
  std::uint64_t payload_hash = kFnvBasis; ///< FNV-1a over padded payload
  std::uint64_t chain_hash = kFnvBasis;   ///< caller's chain, advanced

  /// Visit every record in order as fn(p, q).
  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    for (std::size_t i = 0; i < records.size(); i += 2) {
      fn(records[i], records[i + 1]);
    }
  }
};

/// Final name of shard `shard`'s segment `seg_index` inside the store
/// directory ("shard-0003-seg-000042.krnlseg").
[[nodiscard]] std::string segment_name(index_t shard, count_t seg_index);

/// Publish a sealed buffer as its segment file (write-temp → fsync →
/// atomic rename).  Throws io_error on any failed step; the final name
/// is never visible unless every byte is on disk.
void publish_segment(FileOps& ops, const std::string& dir,
                     const SegmentBuffer& seg);

/// Verify and decode one segment file image read from `path` (named in
/// errors): magic, header plausibility, length and trailer checksum are
/// checked in one pass that also folds `chain` over the payload, and only
/// then are the records decoded, in one walk.  Throws validation_error
/// when it is torn, fails its checksum, or holds a malformed record
/// stream (see file comment).
[[nodiscard]] SegmentData decode_segment(const std::string& bytes,
                                         const std::string& path,
                                         std::uint64_t chain = kFnvBasis);

/// Read + decode_segment; io_error when the file is missing/unreadable.
[[nodiscard]] SegmentData read_segment(FileOps& ops, const std::string& path,
                                       std::uint64_t chain = kFnvBasis);

/// Throw validation_error unless `seg` (read from `path`) sits where a
/// manifest's committed range puts it: spec hash, shard and index
/// match, and its first record is `first_edge`.
void require_committed_at(const SegmentData& seg, const std::string& path,
                          std::uint64_t spec_hash, index_t shard,
                          count_t seg_index, count_t first_edge);

/// Per-shard committed state.
struct ShardProgress {
  count_t segments = 0; ///< committed (sealed + manifest-recorded)
  count_t edges = 0;    ///< committed edge records = resume cursor
  std::uint64_t chain_hash = kFnvBasis; ///< FNV over committed payloads
};

/// Reads one store file, as FileOps::read_file does (nullopt = missing).
using StoreReader =
    std::function<std::optional<std::string>(const std::string& path)>;

/// The one walk over shard `shard`'s committed segments, shared by
/// scan_store, verify_store and dist::load_shard.  Each segment, in
/// order, is read with `read`, decoded (decode_segment), required where
/// `prog` puts it (require_committed_at) and handed to visit(seg); after
/// the last one the segments must reproduce prog's cursor and chain
/// hash.  io_error when a segment is missing, validation_error on any
/// other mismatch.
void for_each_committed_segment(
    const std::string& dir, std::uint64_t spec_hash, index_t shard,
    const ShardProgress& prog, const StoreReader& read,
    const std::function<void(const SegmentData&)>& visit);

struct Manifest {
  std::uint64_t spec_hash = 0;
  count_t segment_edges = 0; ///< records per segment (last may be short)
  std::vector<ShardProgress> shards;

  [[nodiscard]] count_t total_edges() const;
};

/// Atomically replace the store's manifest (write-temp → fsync → rename).
void write_manifest(FileOps& ops, const std::string& dir,
                    const Manifest& man);

/// Read + verify the manifest; nullopt when none exists yet, io_error /
/// validation_error when present but unreadable / corrupt.
[[nodiscard]] std::optional<Manifest> read_manifest(FileOps& ops,
                                                    const std::string& dir);

/// Outcome of a resume scan.
struct ScanResult {
  Manifest manifest;
  count_t adopted_segments = 0;   ///< sealed-but-uncommitted, re-committed
  count_t discarded_files = 0;    ///< tmp / stale files deleted
  count_t verified_segments = 0;  ///< committed segments re-checksummed
};

/// Enforce the resume invariants on `dir` (see file comment) and return
/// the authoritative committed state.  `expected` carries the resuming
/// run's spec hash / shard count / segment size; a mismatch against a
/// present manifest throws validation_error (resuming a different spec
/// into an existing store is never silently "fixed").  When no manifest
/// exists the store is treated as fresh.
[[nodiscard]] ScanResult scan_store(FileOps& ops, const std::string& dir,
                                    const Manifest& expected);

} // namespace kronlab::io
