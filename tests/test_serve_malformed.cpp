// Malformed-frame battery for the query daemon: deterministic frame
// mutations (bad magic, truncated length, corrupted checksum, oversized
// batch, zero-length body, random byte flips) thrown at a live in-process
// server.  The contract under attack input is structural, not behavioral:
// every mutation yields a structured error response or a clean close —
// never a crash, never a leaked connection slot.  CI runs this suite under
// ASan+UBSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "kronlab/common/checksum.hpp"
#include "kronlab/gen/canonical.hpp"
#include "kronlab/serve/client.hpp"
#include "kronlab/serve/protocol.hpp"
#include "kronlab/serve/server.hpp"
#include "kronlab/serve/transport.hpp"

namespace kronlab::serve {
namespace {

kron::BipartiteKronecker make_product() {
  return kron::BipartiteKronecker::assumption_i(
      gen::triangle_with_tail(1), gen::complete_bipartite(3, 4));
}

/// A well-formed one-probe frame to mutate.
std::vector<std::uint8_t> good_frame(std::uint64_t id = 1) {
  return seal_frame(encode_request({id, {Probe::stats()}}));
}

/// Expect a response frame with the given frame-level status.
void expect_status(Transport& t, Status want) {
  const auto frame = read_frame(t, std::chrono::milliseconds(5000));
  ASSERT_TRUE(frame.has_value()) << "connection closed, expected a "
                                 << status_name(want) << " response";
  const Response resp = decode_response(*frame);
  EXPECT_EQ(resp.status, want)
      << "got " << status_name(resp.status);
}

/// Expect the server to close the connection (clean EOF on our side).
void expect_close(Transport& t) {
  // Drain whatever the server sent (e.g. a best-effort malformed
  // response) until EOF; fail on anything but a clean close.
  for (int i = 0; i < 8; ++i) {
    std::optional<std::vector<word_t>> frame;
    try {
      frame = read_frame(t, std::chrono::milliseconds(5000));
    } catch (const error& e) {
      FAIL() << "expected clean close, got error: " << e.what();
    }
    if (!frame) return; // clean EOF
  }
  FAIL() << "server kept the connection open";
}

class ServeMalformedTest : public ::testing::Test {
protected:
  void SetUp() override {
    kp_ = std::make_unique<kron::BipartiteKronecker>(make_product());
    server_ = std::make_unique<Server>(*kp_);
  }

  /// Fresh adopted connection; returns the client end.
  std::unique_ptr<Transport> connect() {
    auto [client_end, server_end] = local_pair();
    server_->adopt(std::move(server_end));
    return std::move(client_end);
  }

  /// The server must still answer a well-formed request on a fresh
  /// connection — i.e. the attack did not take the daemon down or leak
  /// its connection slot.
  void assert_still_serving() {
    Client client(connect());
    const auto s = client.stats();
    EXPECT_EQ(s.num_vertices, kp_->num_vertices());
  }

  std::unique_ptr<kron::BipartiteKronecker> kp_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServeMalformedTest, BadMagicGetsErrorThenClose) {
  auto t = connect();
  auto frame = good_frame();
  frame[0] = 'X'; // no longer "KRNLSRV2"
  t->write_all(frame.data(), frame.size());
  // The stream may be unsynchronized: best-effort malformed answer, then
  // the server must drop the connection.
  expect_status(*t, Status::malformed);
  expect_close(*t);
  assert_still_serving();
  EXPECT_GE(server_->stats().malformed, 1u);
}

TEST_F(ServeMalformedTest, Srv1FrameGetsErrorThenClose) {
  // A well-formed protocol-1 frame: the version-1 magic and the
  // byte-serial FNV-1a that version checksummed its payload with.  The
  // server does not speak it, so it answers malformed and drops the
  // stream, and unseal_frame calls it a framing error, not a checksum one.
  const std::vector<std::uint8_t> v1 = {
      0x4b, 0x52, 0x4e, 0x4c, 0x53, 0x52, 0x56, 0x31, // version-1 magic
      0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 32 payload bytes
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // id = 7
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 1 probe
      0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // Op::stats
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 0 args
      0x05, 0x4f, 0x3c, 0x48, 0x90, 0xcc, 0x1b, 0xc1, // byte-serial FNV-1a
  };
  // The pinned frame is the current frame of the same request but for
  // the magic digit and the checksum word, and that word is right for
  // version 1.
  const auto v2 = good_frame(7);
  ASSERT_EQ(v1.size(), v2.size());
  EXPECT_TRUE(std::equal(v1.begin() + 8, v1.end() - 8, v2.begin() + 8));
  std::uint64_t v1_sum = kFnvBasis;
  for (auto it = v1.begin() + 16; it != v1.end() - 8; ++it) {
    v1_sum = (v1_sum ^ *it) * kFnvPrime;
  }
  std::uint64_t stored = 0;
  std::memcpy(&stored, v1.data() + v1.size() - 8, 8);
  EXPECT_EQ(stored, v1_sum);

  try {
    (void)unseal_frame(v1);
    ADD_FAILURE() << "a version-1 frame unsealed";
  } catch (const checksum_error& e) {
    ADD_FAILURE() << "version mismatch reported as corruption: " << e.what();
  } catch (const protocol_error&) {
  }

  auto t = connect();
  t->write_all(v1.data(), v1.size());
  expect_status(*t, Status::malformed);
  expect_close(*t);
  assert_still_serving();
  EXPECT_GE(server_->stats().malformed, 1u);
}

TEST_F(ServeMalformedTest, ImplausibleLengthGetsErrorThenClose) {
  auto t = connect();
  auto frame = good_frame();
  const std::uint64_t huge = max_frame_bytes + 8;
  std::memcpy(frame.data() + 8, &huge, 8);
  t->write_all(frame.data(), frame.size());
  expect_status(*t, Status::malformed);
  expect_close(*t);
  assert_still_serving();
}

TEST_F(ServeMalformedTest, MisalignedLengthGetsErrorThenClose) {
  auto t = connect();
  auto frame = good_frame();
  const std::uint64_t odd = 33; // not a multiple of 8
  std::memcpy(frame.data() + 8, &odd, 8);
  t->write_all(frame.data(), frame.size());
  expect_status(*t, Status::malformed);
  expect_close(*t);
  assert_still_serving();
}

TEST_F(ServeMalformedTest, CorruptChecksumAnsweredConnectionSurvives) {
  auto t = connect();
  auto frame = good_frame(/*id=*/5);
  frame[frame.size() - 1] ^= 0xFF;
  t->write_all(frame.data(), frame.size());
  // Framing stayed intact, so the connection survives the corruption...
  expect_status(*t, Status::malformed);
  // ...and the very same connection still answers real requests.
  const auto good = good_frame(/*id=*/6);
  t->write_all(good.data(), good.size());
  const auto resp = read_frame(*t, std::chrono::milliseconds(5000));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(decode_response(*resp).status, Status::ok);
  EXPECT_EQ(decode_response(*resp).id, 6u);
}

TEST_F(ServeMalformedTest, CorruptPayloadByteIsDetected) {
  auto t = connect();
  auto frame = good_frame();
  frame[16] ^= 0x40; // flip a payload bit; checksum now mismatches
  t->write_all(frame.data(), frame.size());
  expect_status(*t, Status::malformed);
}

TEST_F(ServeMalformedTest, StatsFrameByteFlipRejectedThenAnswered) {
  // The SERVER_STATS introspection frame gets no special-case framing:
  // a flipped payload byte fails the checksum like any other request,
  // and the same connection then serves the intact frame.
  auto t = connect();
  auto frame = seal_frame(
      encode_request({11, {Probe::server_stats(StatsFormat::json)}}));
  auto corrupt = frame;
  corrupt[24] ^= 0x01; // flip a bit inside the probe words
  t->write_all(corrupt.data(), corrupt.size());
  expect_status(*t, Status::malformed);
  t->write_all(frame.data(), frame.size());
  const auto resp = read_frame(*t, std::chrono::milliseconds(5000));
  ASSERT_TRUE(resp.has_value());
  const Response r = decode_response(*resp);
  EXPECT_EQ(r.status, Status::ok);
  EXPECT_EQ(r.id, 11u);
  ASSERT_EQ(r.results.size(), 1u);
  const std::string text = decode_stats_text(r.results[0].words);
  EXPECT_NE(text.find("kronlab-stats-v1"), std::string::npos);
}

TEST_F(ServeMalformedTest, StatsProbeBadFormatGetsTypedStatus) {
  // An unknown snapshot format is a bad argument, not a protocol error:
  // the frame is well-formed, so the probe gets a typed per-probe status
  // and the connection lives on.
  auto t = connect();
  Probe p;
  p.op = Op::server_stats;
  p.args = {99}; // no such StatsFormat
  const auto frame = seal_frame(encode_request({12, {p}}));
  t->write_all(frame.data(), frame.size());
  const auto resp = read_frame(*t, std::chrono::milliseconds(5000));
  ASSERT_TRUE(resp.has_value());
  const Response r = decode_response(*resp);
  EXPECT_EQ(r.id, 12u);
  ASSERT_EQ(r.results.size(), 1u);
  EXPECT_EQ(r.results[0].status, Status::bad_probe);
}

TEST_F(ServeMalformedTest, ZeroLengthBodyIsMalformedNotFatal) {
  auto t = connect();
  // A syntactically sealed frame with an empty payload: the envelope is
  // fine, but the request grammar (id + probe count) cannot be read.
  const auto frame = seal_frame({});
  t->write_all(frame.data(), frame.size());
  expect_status(*t, Status::malformed);
  assert_still_serving();
}

TEST_F(ServeMalformedTest, OversizedBatchCountIsMalformed) {
  auto t = connect();
  // Payload claims max_batch_probes+1 probes; grammar rejects before any
  // allocation proportional to the count.
  const auto frame = seal_frame(
      {1, static_cast<word_t>(max_batch_probes) + 1, 6, 0});
  t->write_all(frame.data(), frame.size());
  expect_status(*t, Status::malformed);
  assert_still_serving();
}

TEST_F(ServeMalformedTest, TruncatedProbeBodyIsMalformed) {
  auto t = connect();
  // Claims 2 probes but carries only one.
  const auto frame = seal_frame({1, 2, 6, 0});
  t->write_all(frame.data(), frame.size());
  expect_status(*t, Status::malformed);
}

TEST_F(ServeMalformedTest, TruncatedFrameThenDisconnectLeaksNothing) {
  {
    auto t = connect();
    const auto frame = good_frame();
    // First half of a frame, then vanish mid-header/mid-payload.
    t->write_all(frame.data(), frame.size() / 2);
    t->shutdown();
  }
  assert_still_serving();
  // The half-frame never became a request.
  EXPECT_EQ(server_->stats().frames, 1u); // assert_still_serving's only
}

TEST_F(ServeMalformedTest, GarbageStreamNeverCrashes) {
  // Deterministic splitmix-style garbage, several connections' worth.
  std::uint64_t state = 0xDEADBEEF;
  const auto next = [&state] {
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  for (int round = 0; round < 8; ++round) {
    auto t = connect();
    std::vector<std::uint8_t> junk(64 + (next() % 256));
    for (auto& byte : junk) byte = static_cast<std::uint8_t>(next());
    t->write_all(junk.data(), junk.size());
    expect_close(*t); // garbage never matches the magic
  }
  assert_still_serving();
}

TEST_F(ServeMalformedTest, EveryByteFlipIsStructuredOrClose) {
  // Exhaustive single-byte-flip fuzz over one well-formed frame: every
  // mutation must produce a structured response or a clean close on a
  // live server — never a crash, never a wedged connection.
  const auto base = good_frame();
  for (std::size_t i = 0; i < base.size(); ++i) {
    auto frame = base;
    frame[i] ^= 0xA5;
    auto t = connect();
    t->write_all(frame.data(), frame.size());
    t->shutdown_write(); // no more requests; drain what the server says
    // Whatever arrives must parse as a protocol response.  The loop ends
    // on EOF (server closed) or a short quiet timeout (server answered
    // and kept the connection, e.g. a checksum-only corruption).
    for (int guard = 0; guard < 8; ++guard) {
      std::optional<std::vector<word_t>> resp;
      try {
        resp = read_frame(*t, std::chrono::milliseconds(100));
      } catch (const timeout_error&) {
        break; // server is idle, connection intact — fine
      } catch (const error& e) {
        FAIL() << "byte " << i << ": transport error: " << e.what();
      }
      if (!resp) break;
      EXPECT_NO_THROW((void)decode_response(*resp)) << "byte " << i;
    }
  }
  assert_still_serving();
}

TEST_F(ServeMalformedTest, EveryRequestBitFlipDecodesOrIsMalformed) {
  // Exhaustive single-bit-flip fuzz of the request grammar, one layer
  // inside the envelope: each mutated payload is resealed, so it passes
  // the checksum and reaches the parser.  decode_request either throws
  // protocol_error or decodes; the server, sent the same frame, answers
  // malformed in exactly the first case and a whole, well-formed
  // response in the second.
  const index_t n = kp_->num_vertices();
  std::vector<Probe> probes;
  for (index_t i = 0; i < 240; ++i) {
    const auto seed = static_cast<std::uint64_t>(1000 + i);
    switch (i % 6) {
      case 0: probes.push_back(Probe::vertex(i % n)); break;
      case 1: probes.push_back(Probe::edge(i % n, i * 5 % n)); break;
      case 2: probes.push_back(Probe::degree_hist(1, 8)); break;
      case 3: probes.push_back(Probe::sample_vertex(seed)); break;
      case 4: probes.push_back(Probe::sample_edge(seed)); break;
      default: probes.push_back(Probe::stats()); break;
    }
  }
  const auto base = encode_request({1, probes});
  auto t = connect();
  for (std::size_t bit = 0; bit < base.size() * 64; ++bit) {
    auto words = base;
    words[bit / 64] ^= static_cast<word_t>(std::uint64_t{1} << (bit % 64));
    std::optional<Request> req;
    try {
      req = decode_request(words);
    } catch (const protocol_error&) {
    }
    const auto frame = seal_frame(words);
    t->write_all(frame.data(), frame.size());
    const auto reply = read_frame(*t, std::chrono::milliseconds(5000));
    ASSERT_TRUE(reply.has_value()) << "bit " << bit;
    const Response resp = decode_response(*reply);
    if (!req) {
      ASSERT_EQ(resp.status, Status::malformed) << "bit " << bit;
      continue;
    }
    ASSERT_EQ(resp.status, Status::ok) << "bit " << bit;
    ASSERT_EQ(resp.id, req->id) << "bit " << bit;
    ASSERT_EQ(resp.results.size(), req->probes.size()) << "bit " << bit;
    for (std::size_t i = 0; i < req->probes.size(); ++i) {
      ASSERT_EQ(resp.results[i].op, req->probes[i].op) << "bit " << bit;
    }
  }
  assert_still_serving();
}

TEST_F(ServeMalformedTest, UnsealFrameMirrorsStreamErrors) {
  // unseal_frame is the in-memory twin of the reader path: same taxonomy.
  const auto base = good_frame();
  auto bad_magic = base;
  bad_magic[3] = '?';
  EXPECT_THROW((void)unseal_frame(bad_magic), protocol_error);

  auto bad_sum = base;
  bad_sum[bad_sum.size() - 2] ^= 0x01;
  EXPECT_THROW((void)unseal_frame(bad_sum), checksum_error);

  auto truncated = base;
  truncated.pop_back();
  EXPECT_THROW((void)unseal_frame(truncated), protocol_error);

  EXPECT_THROW((void)unseal_frame({}), protocol_error);
}

} // namespace
} // namespace kronlab::serve
