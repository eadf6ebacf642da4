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
// Generated products are persisted elsewhere: the durable KRNLSEG1/KRNLMAN1
// store of io/stream_gen.hpp, which the distributed ranks also load from.

#pragma once

#include <iosfwd>
#include <string>

#include "kronlab/common/types.hpp"
#include "kronlab/grb/csr.hpp"

namespace kronlab::grb {

void write_binary(std::ostream& out, const Csr<count_t>& a);
[[nodiscard]] Csr<count_t> read_binary(std::istream& in);

void write_binary_file(const std::string& path, const Csr<count_t>& a);
[[nodiscard]] Csr<count_t> read_binary_file(const std::string& path);

} // namespace kronlab::grb
