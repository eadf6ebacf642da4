// kronlab/serve/protocol.hpp
//
// Wire protocol of the ground-truth query daemon (kronlab_served).
//
// The paper's O(1)-per-probe oracle is exactly the shape of a long-running
// query service: a system under test streams the generated graph and asks
// the daemon "what is the exact truth at this vertex / edge?" while it
// runs.  This header defines the request/response frames those probes
// travel in; server.hpp executes them, client.hpp issues them.
//
// Frame envelope (all integers little-endian, same discipline as the
// KRNLCSR2/KRNLCKP1 envelopes in grb/binary_io):
//
//   magic "KRNLSRV1" | u64 payload bytes | payload | u64 fnv1a64(payload)
//
// The payload is a vector of 64-bit words.  The trailing checksum covers
// every payload byte, so a corrupt frame is detected before any word of it
// is interpreted.  The payload length must be a multiple of 8 and at most
// max_frame_bytes; anything else is unrecoverable (the stream may be
// unsynchronized) and the connection is closed.
//
// Request payload words:
//
//   [0] frame id (client-chosen, echoed in the response)
//   [1] probe count n            (0 < n <= max_batch_probes)
//   then per probe: opcode | arg count | args...
//
// Response payload words:
//
//   [0] frame id (echoed; 0 when the request was too corrupt to read one)
//   [1] frame status             (Status)
//   [2] result count n           (0 on frame-level errors)
//   then per result: opcode | status | word count | words...
//
// Result words per opcode (doubles travel as IEEE-754 bit patterns):
//
//   vertex, sample_vertex   p, degree, two_hop, squares, closure_bits
//   edge, sample_edge       p, q, degree_p, degree_q, squares, gamma_bits
//   degree_hist             pair count, then (degree, vertex count) pairs
//   stats                   num_vertices, num_edges, global_squares
//   server_stats            format, byte length, then ceil(len/8) words of
//                           UTF-8 text packed little-endian, zero-padded
//                           (a live telemetry snapshot — see obs/stats)
//
// Versioning rule: the magic carries the protocol version ("KRNLSRV1").
// Within a version, responses may only grow by appending words to a
// result (clients must ignore trailing words they do not know); any
// incompatible change — reordered words, changed semantics, new framing —
// bumps the digit, and a server drops connections whose magic it does not
// speak.  Opcodes and status codes are append-only.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "kronlab/common/error.hpp"
#include "kronlab/common/registry.hpp"
#include "kronlab/common/types.hpp"
#include "kronlab/kron/oracle.hpp"

namespace kronlab::serve {

/// Payload word (mirrors dist::word_t: every field is a 64-bit word).
using word_t = std::int64_t;

/// The protocol magic, version included.
// Alias into the one-definition registry (common/registry.hpp); keeps
// sizeof frame_magic == 8 for the memcpy/memcmp framing below.
inline constexpr const char (&frame_magic)[8] = magic::kSrv1;

/// Hard cap on one frame's payload (bytes).  Far above any real batch,
/// far below anything that could turn eight corrupt length bytes into a
/// multi-gigabyte allocation.
inline constexpr std::size_t max_frame_bytes = std::size_t{1} << 20;

/// Cap on probes per request frame (admission is per frame, so a frame is
/// also the batching unit — see server.hpp).
inline constexpr std::size_t max_batch_probes = 4096;

/// Probe opcodes.  Append-only (see the versioning rule above).
enum class Op : word_t {
  vertex = 1,        ///< args: p            → vertex record
  edge = 2,          ///< args: p, q         → edge record
  degree_hist = 3,   ///< args: lo, hi       → histogram pairs, lo<=d<=hi
  sample_vertex = 4, ///< args: seed         → vertex record, seeded draw
  sample_edge = 5,   ///< args: seed         → edge record, seeded draw
  stats = 6,         ///< args: none         → global statistics
  server_stats = 7,  ///< args: format       → live telemetry snapshot (admin)
};

/// Snapshot formats accepted by Op::server_stats.
enum class StatsFormat : word_t {
  json = 0,       ///< kronlab-stats-v1 JSON object
  prometheus = 1, ///< Prometheus text exposition format
};

/// Status codes, per result and per frame.  Append-only.
enum class Status : word_t {
  ok = 0,
  not_an_edge = 1,   ///< edge probe on a non-edge (or out-of-range pair)
  bad_probe = 2,     ///< unknown opcode / wrong arg count / bad arg range
  overloaded = 3,    ///< admission queue full — retry later
  malformed = 4,     ///< frame decoded but violates the payload grammar
  shutting_down = 5, ///< server draining; no new work admitted
};

/// Human-readable status name ("ok", "overloaded", ...).
[[nodiscard]] const char* status_name(Status s);

/// Human-readable opcode name ("vertex", "degree_hist", ...).
[[nodiscard]] const char* op_name(Op op);

/// A frame that violates the envelope (bad magic, implausible length).
/// The stream may be unsynchronized: close the connection.
class protocol_error : public error {
public:
  explicit protocol_error(const std::string& what) : error(what) {}
};

/// Envelope intact but the payload checksum does not match.  Framing is
/// still synchronized, so the peer can answer `malformed` and keep the
/// connection.
class checksum_error : public protocol_error {
public:
  explicit checksum_error(const std::string& what) : protocol_error(what) {}
};

/// One probe of a request frame.
struct Probe {
  Op op = Op::stats;
  std::vector<word_t> args;

  static Probe vertex(index_t p) { return {Op::vertex, {p}}; }
  static Probe edge(index_t p, index_t q) { return {Op::edge, {p, q}}; }
  static Probe degree_hist(count_t lo, count_t hi) {
    return {Op::degree_hist, {lo, hi}};
  }
  static Probe sample_vertex(std::uint64_t seed) {
    return {Op::sample_vertex, {static_cast<word_t>(seed)}};
  }
  static Probe sample_edge(std::uint64_t seed) {
    return {Op::sample_edge, {static_cast<word_t>(seed)}};
  }
  static Probe stats() { return {Op::stats, {}}; }
  static Probe server_stats(StatsFormat format = StatsFormat::json) {
    return {Op::server_stats, {static_cast<word_t>(format)}};
  }
};

/// One result of a response frame.
struct ProbeResult {
  Op op = Op::stats;
  Status status = Status::ok;
  std::vector<word_t> words;
};

struct Request {
  std::uint64_t id = 0;
  std::vector<Probe> probes;
};

struct Response {
  std::uint64_t id = 0;
  Status status = Status::ok;
  std::vector<ProbeResult> results;
};

/// Global statistics answered by Op::stats.
struct StatsRecord {
  index_t num_vertices = 0;
  count_t num_edges = 0;
  count_t global_squares = 0;
};

/// One probe of a parsed request payload: its opcode and where its
/// `argc` args sit among the payload words.  A view — valid as long as
/// the payload it was parsed from.
struct ProbeView {
  Op op = Op::stats;
  std::uint32_t offset = 0;
  std::uint32_t argc = 0;
};

// ---------------------------------------------------------------------------
// Payload grammar: words <-> structs.  Decoders throw protocol_error on
// grammar violations (oversized batch, wrong arg count, truncated body).

/// The one request grammar: check a whole request payload and return one
/// view per probe (the frame id is word 0).  decode_request and the
/// server both read requests through it.
[[nodiscard]] std::vector<ProbeView> parse_request(
    std::span<const word_t> words);

[[nodiscard]] std::vector<word_t> encode_request(const Request& req);
[[nodiscard]] Request decode_request(const std::vector<word_t>& words);

[[nodiscard]] std::vector<word_t> encode_response(const Response& resp);
[[nodiscard]] Response decode_response(const std::vector<word_t>& words);

/// Best-effort frame id of an undecodable request payload (word 0), for
/// the malformed response; 0 when the payload is empty.
[[nodiscard]] std::uint64_t peek_request_id(const std::vector<word_t>& words);

// Record -> result words (the per-opcode layouts documented above).  The
// append forms write onto the end of `out`, which is how the server fills
// its one response buffer; encode_record / encode_hist wrap them.
void append_record(std::vector<word_t>& out, const kron::VertexRecord& r);
void append_record(std::vector<word_t>& out, const kron::EdgeRecord& r);
void append_record(std::vector<word_t>& out, const StatsRecord& r);
void append_hist(std::vector<word_t>& out,
                 std::span<const std::pair<count_t, index_t>> pairs);

template <typename Record>
[[nodiscard]] std::vector<word_t> encode_record(const Record& r) {
  std::vector<word_t> out;
  append_record(out, r);
  return out;
}
[[nodiscard]] std::vector<word_t> encode_hist(
    std::span<const std::pair<count_t, index_t>> pairs);

[[nodiscard]] kron::VertexRecord decode_vertex_record(
    const std::vector<word_t>& words);
[[nodiscard]] kron::EdgeRecord decode_edge_record(
    const std::vector<word_t>& words);
[[nodiscard]] StatsRecord decode_stats_record(
    const std::vector<word_t>& words);
[[nodiscard]] std::vector<std::pair<count_t, index_t>> decode_hist(
    const std::vector<word_t>& words);

/// server_stats result words: format | byte length | packed UTF-8 text.
/// encode_stats_text rejects text above max_frame_bytes; decode_stats_text
/// validates the length against the word count before unpacking.
[[nodiscard]] std::vector<word_t> encode_stats_text(StatsFormat format,
                                                    std::string_view text);
[[nodiscard]] std::string decode_stats_text(const std::vector<word_t>& words);

// ---------------------------------------------------------------------------
// Envelope: payload words <-> sealed byte frames.

/// magic | length | payload | checksum, as one contiguous byte buffer.
[[nodiscard]] std::vector<std::uint8_t> seal_frame(
    const std::vector<word_t>& payload);

/// Inverse of seal_frame over a complete in-memory frame.  Throws
/// protocol_error / checksum_error exactly as the streaming reader in
/// transport.hpp does — this is the hook the malformed-frame fuzz tests
/// drive byte mutations through.
[[nodiscard]] std::vector<word_t> unseal_frame(
    const std::vector<std::uint8_t>& bytes);

/// Bit-pattern transport for doubles (closure / gamma fields).
[[nodiscard]] word_t double_bits(double v);
[[nodiscard]] double bits_double(word_t w);

} // namespace kronlab::serve
