#include "kronlab/serve/protocol.hpp"

#include <cstring>

#include "kronlab/common/checksum.hpp"

namespace kronlab::serve {

const char* status_name(Status s) {
  switch (s) {
    case Status::ok: return "ok";
    case Status::not_an_edge: return "not_an_edge";
    case Status::bad_probe: return "bad_probe";
    case Status::overloaded: return "overloaded";
    case Status::malformed: return "malformed";
    case Status::shutting_down: return "shutting_down";
  }
  return "unknown";
}

const char* op_name(Op op) {
  switch (op) {
    case Op::vertex: return "vertex";
    case Op::edge: return "edge";
    case Op::degree_hist: return "degree_hist";
    case Op::sample_vertex: return "sample_vertex";
    case Op::sample_edge: return "sample_edge";
    case Op::stats: return "stats";
    case Op::server_stats: return "server_stats";
  }
  return "unknown";
}

word_t double_bits(double v) {
  word_t w = 0;
  static_assert(sizeof w == sizeof v);
  std::memcpy(&w, &v, sizeof w);
  return w;
}

double bits_double(word_t w) {
  double v = 0;
  std::memcpy(&v, &w, sizeof v);
  return v;
}

namespace {

/// Bounds-checked word cursor: every decoder reads through one of these so
/// a truncated body is a typed protocol_error, never an out-of-range read.
class Cursor {
public:
  explicit Cursor(std::span<const word_t> words) : words_(words) {}

  [[nodiscard]] std::size_t pos() const { return pos_; }

  [[nodiscard]] std::size_t remaining() const {
    return words_.size() - pos_;
  }

  /// The next `n` words, as one view.
  std::span<const word_t> take(std::size_t n, const char* what) {
    if (n > remaining()) {
      throw protocol_error(std::string("kronlab serve: payload truncated "
                                       "while reading ") +
                           what);
    }
    const auto out = words_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  word_t next(const char* what) { return take(1, what)[0]; }

private:
  std::span<const word_t> words_;
  std::size_t pos_ = 0;
};

/// Probe argument counts are tiny; cap defensively so a corrupt count
/// cannot drive a giant loop (the payload length cap already bounds it,
/// but a typed error beats a confusing truncation message).
constexpr word_t kMaxProbeArgs = 16;

/// Result word counts: bounded by the frame, but cap for the same reason.
constexpr word_t kMaxResultWords = 1 << 16;

} // namespace

std::vector<word_t> encode_request(const Request& req) {
  std::vector<word_t> out;
  out.reserve(2 + req.probes.size() * 3);
  out.push_back(static_cast<word_t>(req.id));
  out.push_back(static_cast<word_t>(req.probes.size()));
  for (const Probe& p : req.probes) {
    out.push_back(static_cast<word_t>(p.op));
    out.push_back(static_cast<word_t>(p.args.size()));
    out.insert(out.end(), p.args.begin(), p.args.end());
  }
  return out;
}

std::vector<ProbeView> parse_request(std::span<const word_t> words) {
  Cursor c(words);
  (void)c.next("frame id");
  const word_t n = c.next("probe count");
  if (n <= 0 || static_cast<std::size_t>(n) > max_batch_probes) {
    throw protocol_error("kronlab serve: probe count " + std::to_string(n) +
                         " outside (0, " + std::to_string(max_batch_probes) +
                         "]");
  }
  std::vector<ProbeView> probes(static_cast<std::size_t>(n));
  for (ProbeView& p : probes) {
    p.op = static_cast<Op>(c.next("opcode"));
    const word_t nargs = c.next("arg count");
    if (nargs < 0 || nargs > kMaxProbeArgs) {
      throw protocol_error("kronlab serve: probe arg count " +
                           std::to_string(nargs) + " outside [0, " +
                           std::to_string(kMaxProbeArgs) + "]");
    }
    // The payload is capped at max_frame_bytes, so offsets fit 32 bits.
    p.offset = static_cast<std::uint32_t>(c.pos());
    p.argc = static_cast<std::uint32_t>(nargs);
    (void)c.take(p.argc, "probe arg");
  }
  if (c.remaining() != 0) {
    throw protocol_error("kronlab serve: request carries " +
                         std::to_string(c.remaining()) +
                         " words past the last probe");
  }
  return probes;
}

Request decode_request(const std::vector<word_t>& words) {
  const std::vector<ProbeView> views = parse_request(words);
  Request req;
  req.id = static_cast<std::uint64_t>(words[0]);
  req.probes.reserve(views.size());
  for (const ProbeView& v : views) {
    const auto args = words.begin() + v.offset;
    req.probes.push_back({v.op, std::vector<word_t>(args, args + v.argc)});
  }
  return req;
}

std::vector<word_t> encode_response(const Response& resp) {
  std::vector<word_t> out;
  out.reserve(3 + resp.results.size() * 3);
  out.push_back(static_cast<word_t>(resp.id));
  out.push_back(static_cast<word_t>(resp.status));
  out.push_back(static_cast<word_t>(resp.results.size()));
  for (const ProbeResult& r : resp.results) {
    out.push_back(static_cast<word_t>(r.op));
    out.push_back(static_cast<word_t>(r.status));
    out.push_back(static_cast<word_t>(r.words.size()));
    out.insert(out.end(), r.words.begin(), r.words.end());
  }
  return out;
}

Response decode_response(const std::vector<word_t>& words) {
  Cursor c(words);
  Response resp;
  resp.id = static_cast<std::uint64_t>(c.next("frame id"));
  resp.status = static_cast<Status>(c.next("frame status"));
  const word_t n = c.next("result count");
  if (n < 0 || static_cast<std::size_t>(n) > max_batch_probes) {
    throw protocol_error("kronlab serve: result count " + std::to_string(n) +
                         " outside [0, " +
                         std::to_string(max_batch_probes) + "]");
  }
  resp.results.reserve(static_cast<std::size_t>(n));
  for (word_t i = 0; i < n; ++i) {
    ProbeResult r;
    r.op = static_cast<Op>(c.next("result opcode"));
    r.status = static_cast<Status>(c.next("result status"));
    const word_t nwords = c.next("result word count");
    if (nwords < 0 || nwords > kMaxResultWords) {
      throw protocol_error("kronlab serve: result word count " +
                           std::to_string(nwords) + " outside [0, " +
                           std::to_string(kMaxResultWords) + "]");
    }
    const auto body =
        c.take(static_cast<std::size_t>(nwords), "result words");
    r.words.assign(body.begin(), body.end());
    resp.results.push_back(std::move(r));
  }
  if (c.remaining() != 0) {
    throw protocol_error("kronlab serve: response carries " +
                         std::to_string(c.remaining()) +
                         " words past the last result");
  }
  return resp;
}

std::uint64_t peek_request_id(const std::vector<word_t>& words) {
  return words.empty() ? 0 : static_cast<std::uint64_t>(words[0]);
}

void append_record(std::vector<word_t>& out, const kron::VertexRecord& r) {
  out.insert(out.end(),
             {r.p, r.degree, r.two_hop, r.squares, double_bits(r.closure)});
}

void append_record(std::vector<word_t>& out, const kron::EdgeRecord& r) {
  out.insert(out.end(), {r.p, r.q, r.degree_p, r.degree_q, r.squares,
                         double_bits(r.gamma)});
}

void append_record(std::vector<word_t>& out, const StatsRecord& r) {
  out.insert(out.end(), {r.num_vertices, r.num_edges, r.global_squares});
}

void append_hist(std::vector<word_t>& out,
                 std::span<const std::pair<count_t, index_t>> pairs) {
  out.push_back(static_cast<word_t>(pairs.size()));
  for (const auto& [degree, vertices] : pairs) {
    out.push_back(degree);
    out.push_back(vertices);
  }
}

std::vector<word_t> encode_hist(
    std::span<const std::pair<count_t, index_t>> pairs) {
  std::vector<word_t> out;
  append_hist(out, pairs);
  return out;
}

kron::VertexRecord decode_vertex_record(const std::vector<word_t>& words) {
  // Trailing words are ignored by design: within one protocol version a
  // newer server may append fields (see the versioning rule).
  if (words.size() < 5) {
    throw protocol_error("kronlab serve: vertex record needs 5 words, got " +
                         std::to_string(words.size()));
  }
  kron::VertexRecord r;
  r.p = words[0];
  r.degree = words[1];
  r.two_hop = words[2];
  r.squares = words[3];
  r.closure = bits_double(words[4]);
  return r;
}

kron::EdgeRecord decode_edge_record(const std::vector<word_t>& words) {
  if (words.size() < 6) {
    throw protocol_error("kronlab serve: edge record needs 6 words, got " +
                         std::to_string(words.size()));
  }
  kron::EdgeRecord r;
  r.p = words[0];
  r.q = words[1];
  r.degree_p = words[2];
  r.degree_q = words[3];
  r.squares = words[4];
  r.gamma = bits_double(words[5]);
  return r;
}

StatsRecord decode_stats_record(const std::vector<word_t>& words) {
  if (words.size() < 3) {
    throw protocol_error("kronlab serve: stats record needs 3 words, got " +
                         std::to_string(words.size()));
  }
  StatsRecord r;
  r.num_vertices = words[0];
  r.num_edges = words[1];
  r.global_squares = words[2];
  return r;
}

std::vector<std::pair<count_t, index_t>> decode_hist(
    const std::vector<word_t>& words) {
  Cursor c(words);
  const word_t n = c.next("histogram pair count");
  if (n < 0 || static_cast<std::size_t>(n) > max_frame_bytes / 16) {
    throw protocol_error("kronlab serve: implausible histogram pair count " +
                         std::to_string(n));
  }
  std::vector<std::pair<count_t, index_t>> pairs;
  pairs.reserve(static_cast<std::size_t>(n));
  for (word_t i = 0; i < n; ++i) {
    const count_t degree = c.next("histogram degree");
    const index_t vertices = c.next("histogram count");
    pairs.emplace_back(degree, vertices);
  }
  return pairs;
}

std::vector<word_t> encode_stats_text(StatsFormat format,
                                      std::string_view text) {
  // 2 header words + the packed text must still seal into one frame.
  if (text.size() > max_frame_bytes - 4 * sizeof(word_t)) {
    throw protocol_error("kronlab serve: stats snapshot of " +
                         std::to_string(text.size()) +
                         " bytes exceeds the frame cap");
  }
  const std::size_t nwords = (text.size() + sizeof(word_t) - 1)
                             / sizeof(word_t);
  std::vector<word_t> out(2 + nwords, 0);
  out[0] = static_cast<word_t>(format);
  out[1] = static_cast<word_t>(text.size());
  if (!text.empty()) std::memcpy(out.data() + 2, text.data(), text.size());
  return out;
}

std::string decode_stats_text(const std::vector<word_t>& words) {
  if (words.size() < 2) {
    throw protocol_error("kronlab serve: server_stats result needs 2 header "
                         "words, got " + std::to_string(words.size()));
  }
  const word_t len = words[1];
  if (len < 0 || static_cast<std::size_t>(len) > max_frame_bytes) {
    throw protocol_error("kronlab serve: implausible stats text length " +
                         std::to_string(len));
  }
  const std::size_t nwords = (static_cast<std::size_t>(len) + sizeof(word_t)
                              - 1) / sizeof(word_t);
  // Trailing words beyond the text are ignored (versioning rule), but the
  // text itself must be fully present.
  if (words.size() < 2 + nwords) {
    throw protocol_error("kronlab serve: stats text of " +
                         std::to_string(len) + " bytes truncated at " +
                         std::to_string((words.size() - 2) * sizeof(word_t)) +
                         " bytes");
  }
  std::string text(static_cast<std::size_t>(len), '\0');
  if (len > 0) std::memcpy(text.data(), words.data() + 2, text.size());
  return text;
}

std::vector<std::uint8_t> seal_frame(const std::vector<word_t>& payload) {
  const std::size_t body = payload.size() * sizeof(word_t);
  if (body > max_frame_bytes) {
    throw protocol_error("kronlab serve: frame payload of " +
                         std::to_string(body) + " bytes exceeds the " +
                         std::to_string(max_frame_bytes) + "-byte cap");
  }
  std::vector<std::uint8_t> out(sizeof frame_magic + 8 + body + 8);
  std::uint8_t* w = out.data();
  std::memcpy(w, frame_magic, sizeof frame_magic);
  w += sizeof frame_magic;
  const auto len = static_cast<std::uint64_t>(body);
  std::memcpy(w, &len, 8);
  w += 8;
  if (body > 0) std::memcpy(w, payload.data(), body);
  w += body;
  const std::uint64_t sum = fnv1a64(payload.data(), body);
  std::memcpy(w, &sum, 8);
  return out;
}

std::vector<word_t> unseal_frame(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < sizeof frame_magic + 16) {
    throw protocol_error("kronlab serve: frame shorter than its envelope");
  }
  if (std::memcmp(bytes.data(), frame_magic, sizeof frame_magic) != 0) {
    throw protocol_error("kronlab serve: bad frame magic");
  }
  std::uint64_t len = 0;
  std::memcpy(&len, bytes.data() + sizeof frame_magic, 8);
  if (len > max_frame_bytes || len % sizeof(word_t) != 0) {
    throw protocol_error("kronlab serve: implausible frame length " +
                         std::to_string(len));
  }
  if (bytes.size() != sizeof frame_magic + 8 + len + 8) {
    throw protocol_error("kronlab serve: frame truncated (" +
                         std::to_string(bytes.size()) + " bytes for a " +
                         std::to_string(len) + "-byte payload)");
  }
  std::vector<word_t> payload(len / sizeof(word_t));
  if (len > 0) {
    std::memcpy(payload.data(), bytes.data() + sizeof frame_magic + 8, len);
  }
  std::uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + sizeof frame_magic + 8 + len, 8);
  if (stored != fnv1a64(payload.data(), len)) {
    throw checksum_error("kronlab serve: frame checksum mismatch");
  }
  return payload;
}

} // namespace kronlab::serve
