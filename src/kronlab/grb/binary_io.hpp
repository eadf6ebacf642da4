// kronlab/grb/binary_io.hpp
//
// Binary CSR serialization.
//
// The paper's §I storage argument: stochastic generators must persist the
// full generated graph to reuse it, while nonstochastic Kronecker graphs
// are reproducible from their (tiny) factors.  kronlab therefore ships a
// compact binary format for *factors* — persist kilobytes, regenerate the
// massive product deterministically.
//
// Format (little-endian 64-bit words):
//   magic "KRNLCSR2" | nrows | ncols | nnz | row_ptr[nrows+1]
//   | col_idx[nnz] | vals[nnz] | fnv1a64(header..vals bytes)
//
// The trailing word is an FNV-1a checksum (common/checksum.hpp) of every
// byte between the magic and the checksum itself, so silent corruption
// (the failure mode the paper lineage's regenerate-and-validate workflow
// is built to catch) is detected at load time instead of producing a
// garbage CSR.  Any other magic, including the retired checksum-less
// "KRNLCSR1", is an io_error.  Arrays are read in bounded chunks, so a
// header that overstates a count is a "truncated" io_error, never a
// huge allocation.
//
// A second envelope, "KRNLCKP1", wraps a metadata word vector plus an
// embedded CSR — the checkpoint format of the fault-tolerant distributed
// pipeline (dist/sharded.hpp).  The metadata words carry their own FNV-1a
// checksum; the embedded CSR is protected by its KRNLCSR2 checksum.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "kronlab/common/types.hpp"
#include "kronlab/grb/csr.hpp"

namespace kronlab::grb {

void write_binary(std::ostream& out, const Csr<count_t>& a);
[[nodiscard]] Csr<count_t> read_binary(std::istream& in);

void write_binary_file(const std::string& path, const Csr<count_t>& a);
[[nodiscard]] Csr<count_t> read_binary_file(const std::string& path);

/// Checksummed snapshot: free-form metadata words + one CSR payload.
struct SnapshotEnvelope {
  std::vector<std::int64_t> meta;
  Csr<count_t> payload;
};

void write_snapshot(std::ostream& out, const SnapshotEnvelope& snap);
[[nodiscard]] SnapshotEnvelope read_snapshot(std::istream& in);

/// File variants.  write_snapshot_file is atomic: it writes `path.tmp`
/// and renames, so a crash mid-checkpoint never leaves a torn file under
/// the final name.
void write_snapshot_file(const std::string& path,
                         const SnapshotEnvelope& snap);
[[nodiscard]] SnapshotEnvelope read_snapshot_file(const std::string& path);

} // namespace kronlab::grb
