// kronlab/io/stream_gen.hpp
//
// Crash-tolerant resumable streaming generation.
//
// generate_durable streams a Kronecker product's edges shard by shard
// (kron::PartitionedStream row partition) into a durable store of
// KRNLSEG2 segments + a KRNLMAN1 manifest (io/durable.hpp).  The manifest
// commits only at segment boundaries, so after ANY crash the resume path
// (opt.resume) scans the store, discards torn tails, adopts the one
// possible sealed-but-uncommitted segment, fast-forwards the entry stream
// arithmetically to the committed cursor
// (PartitionedStream::for_each_entry_from), and continues — producing a
// store byte-identical to an uninterrupted run.
//
// While generating, a StreamValidator samples the edge stream against the
// factored ground-truth oracle in O(1) memory: hash-sampled rows get an
// exact degree check (edges arrive row-major, so one counter suffices)
// and hash-sampled edges get an exact membership probe.  Any disagreement
// is a validation_error — generation aborts rather than committing a
// drifting stream.
//
// The shards run concurrently on global_pool(), each with its own
// validator and segment buffer; every FileOps call goes through one store
// lock (see SharedStore in stream_gen.cpp).  Commit order across shards
// depends on scheduling, but the final store is byte-identical to a
// one-shard-at-a-time run.  The first failure of any shard wins: it is
// rethrown after the join, and no FileOps call follows it.

#pragma once

#include <cstdint>
#include <string>

#include "kronlab/io/durable.hpp"
#include "kronlab/kron/oracle.hpp"
#include "kronlab/kron/partition.hpp"

namespace kronlab::io {

/// Spec hash of the generation input: factor shapes, structure, and mode.
/// Two runs share a durable store iff their spec hashes agree (layout —
/// shard count, segment size — is checked separately by scan_store).
[[nodiscard]] std::uint64_t spec_hash(const kron::BipartiteKronecker& kp);

struct StreamGenOptions {
  std::string dir;            ///< store directory (created if missing)
  index_t shards = 4;         ///< PartitionedStream parts = output shards
  count_t segment_edges = 1 << 14; ///< records per segment (commit grain)
  bool resume = false;        ///< scan + continue instead of fresh start

  bool validate = true;       ///< on-the-fly oracle validation
  std::uint64_t sample_seed = 1;
  std::uint64_t sample_rate = 64; ///< 1-in-N hash sampling (1 = everything)
};

struct StreamGenReport {
  count_t edges_written = 0;  ///< records generated and sealed this run
  count_t edges_resumed = 0;  ///< records skipped (already committed)
  count_t segments_sealed = 0;
  count_t adopted_segments = 0;  ///< from scan_store
  count_t discarded_files = 0;   ///< from scan_store
  count_t verified_segments = 0; ///< from scan_store
  count_t rows_checked = 0;   ///< validator degree checks performed
  count_t edges_checked = 0;  ///< validator membership probes performed
  Manifest manifest;          ///< final committed state
};

/// O(1)-memory streaming validator: edges must arrive row-major per
/// shard.  Throws validation_error the moment the stream contradicts the
/// oracle.  Deterministic per (seed, rate).
class StreamValidator {
public:
  StreamValidator(const kron::GroundTruthOracle& oracle,
                  std::uint64_t seed, std::uint64_t rate);

  /// Start a shard's stream.  `first_row_partial` marks the first row
  /// seen as resumed-into (its prefix is already on disk), exempting it
  /// from the degree check.
  void begin_shard(bool first_row_partial);

  /// Observe the next edge of the current shard (row-major order).
  void observe(index_t p, index_t q);

  /// Close out the shard (checks the last open row).
  void end_shard();

  [[nodiscard]] count_t rows_checked() const { return rows_checked_; }
  [[nodiscard]] count_t edges_checked() const { return edges_checked_; }

private:
  [[nodiscard]] bool sampled(std::uint64_t x) const;
  void close_row();

  const kron::GroundTruthOracle* oracle_;
  std::uint64_t seed_;
  std::uint64_t threshold_ = 0; ///< sampled iff mix(x ^ seed) <= this
  index_t row_ = -1;          ///< current row, -1 = none yet
  count_t row_edges_ = 0;     ///< edges seen of the current row
  bool row_partial_ = false;  ///< current row resumed mid-way: skip check
  bool next_row_partial_ = false;
  count_t rows_checked_ = 0;
  count_t edges_checked_ = 0;
};

/// Stream kp's edges into a durable store under `ops` (see file comment).
/// Fresh runs refuse a directory that already holds a manifest (io_error)
/// — resuming a store is explicit, never accidental.  Throws
/// validation_error when resuming against a different spec/layout, when
/// the store is corrupt, or when validation catches stream drift.
StreamGenReport generate_durable(FileOps& ops,
                                 const kron::BipartiteKronecker& kp,
                                 const StreamGenOptions& opt);

struct VerifyReport {
  count_t segments = 0;
  count_t edges = 0;
  count_t rows_checked = 0;
  count_t edges_checked = 0;
};

/// Re-read a COMPLETE store and validate it end to end, reading each
/// segment once: every segment checksums and tiles its shard exactly,
/// the manifest chains reproduce, per-shard totals equal the partition's
/// entry counts, no segment file lies outside the committed range, and
/// the decoded edge stream passes the StreamValidator at (seed, rate).
/// Read-only: unlike a resume scan it deletes, adopts and rewrites
/// nothing.  Throws io_error / validation_error as appropriate.
VerifyReport verify_store(FileOps& ops,
                          const kron::BipartiteKronecker& kp,
                          const StreamGenOptions& opt);

} // namespace kronlab::io
