// kronlab/io/durable.hpp
//
// Durable sharded edge output: KRNLSEG1 segments + a KRNLMAN1 manifest.
//
// The crash-tolerance backbone of extreme-scale streaming generation
// (io/stream_gen.hpp): a multi-hour run must survive a kill at any
// instruction boundary losing at most one uncommitted segment.
//
// KRNLSEG1 segment file (little-endian 64-bit words after an 8-byte
// magic):
//
//   "KRNLSEG1" | spec_hash | shard | seg_index | first_edge | num_edges
//   | (p, q) * num_edges | fnv1a64_words(header..payload)
//
// Fixed-size binary edge records; the trailing FNV-1a word covers every
// word between the magic and itself, so a torn or bit-flipped segment is
// detected on read.  `first_edge` is the edge ordinal within the shard's
// deterministic stream — segments of one shard tile [0, edges) exactly.
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
//   "KRNLMAN1" | version (2) | spec_hash | shards | segment_edges
//   | total_edges | per shard: (segments, edges, chain_hash)
//   | fnv1a64_words(all preceding words)
//
// `chain_hash` is the word-folded FNV-1a of the shard's committed
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
#include <cstring>
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

/// Words before a KRNLSEG1 payload: the magic and the five header words.
inline constexpr std::size_t kSegmentHeadWords = 6;

/// One segment's file image, encoded in place: records go straight into
/// the words publish_segment writes, and the buffer is reused from seal
/// to seal.
class SegmentBuffer {
public:
  explicit SegmentBuffer(count_t capacity);

  void push(index_t p, index_t q) {
    words_.push_back(p);
    words_.push_back(q);
  }

  [[nodiscard]] count_t num_edges() const {
    return static_cast<count_t>(words_.size() - kSegmentHeadWords) / 2;
  }

  /// Stamp `header` (its num_edges must equal num_edges()) and append
  /// the trailer.  One pass over the records folds the payload hash
  /// (returned), the trailer checksum, and `chain` — the shard's running
  /// chain hash, advanced in place.
  [[nodiscard]] std::uint64_t seal(const SegmentHeader& header,
                                   std::uint64_t& chain);

  /// The sealed file image.
  [[nodiscard]] const void* data() const { return words_.data(); }
  [[nodiscard]] std::size_t size_bytes() const {
    return words_.size() * sizeof(std::int64_t);
  }
  [[nodiscard]] const SegmentHeader& header() const { return header_; }

  /// Drop the records (and trailer), keeping the allocation.
  void clear() { words_.resize(kSegmentHeadWords); }

private:
  SegmentHeader header_;
  std::vector<std::int64_t> words_;
};

/// One decoded segment.  Holds the file bytes it was read from; the
/// records are read in place.
struct SegmentData {
  SegmentHeader header;
  std::string bytes;
  std::uint64_t payload_hash = kFnvBasis; ///< FNV-1a over the payload
  std::uint64_t chain_hash = kFnvBasis;   ///< caller's chain, advanced

  /// Visit every record in order as fn(p, q).
  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    const char* at = bytes.data() + kSegmentHeadWords * sizeof(std::int64_t);
    for (count_t e = 0; e < header.num_edges; ++e) {
      std::int64_t rec[2];
      std::memcpy(rec, at, sizeof rec);
      at += sizeof rec;
      fn(rec[0], rec[1]);
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
/// errors): magic, header plausibility, length and trailer checksum all
/// checked in one pass that also folds `chain` over the payload.
/// Throws validation_error when it is torn or fails its checksum.
[[nodiscard]] SegmentData decode_segment(std::string bytes,
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
