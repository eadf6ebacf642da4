// Wire-protocol tests for the query daemon (serve/protocol.hpp): encoder /
// decoder round trips for every request and response shape, a golden-bytes
// frame (the literal on-the-wire layout "KRNLSRV2" | length | payload |
// word-folded FNV-1a), and an end-to-end check that records served over a live
// in-process connection are byte-for-byte what a direct GroundTruthOracle
// call returns on the same spec.

#include <gtest/gtest.h>

#include <set>

#include "kronlab/gen/canonical.hpp"
#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/graph/graph.hpp"
#include "kronlab/serve/client.hpp"
#include "kronlab/serve/protocol.hpp"
#include "kronlab/serve/server.hpp"
#include "kronlab/serve/transport.hpp"

namespace kronlab::serve {
namespace {

kron::BipartiteKronecker make_product() {
  Rng rng(7001);
  return kron::BipartiteKronecker::assumption_ii(
      gen::connected_random_bipartite(4, 4, 10, rng),
      gen::connected_random_bipartite(4, 5, 12, rng));
}

TEST(ServeProtocol, RequestRoundTripsEveryOpcode) {
  Request req;
  req.id = 42;
  req.probes = {Probe::vertex(3),        Probe::edge(1, 9),
                Probe::degree_hist(2, 8), Probe::sample_vertex(77),
                Probe::sample_edge(78),   Probe::stats()};
  const Request back = decode_request(encode_request(req));
  EXPECT_EQ(back.id, req.id);
  ASSERT_EQ(back.probes.size(), req.probes.size());
  for (std::size_t i = 0; i < req.probes.size(); ++i) {
    EXPECT_EQ(back.probes[i].op, req.probes[i].op) << "probe " << i;
    EXPECT_EQ(back.probes[i].args, req.probes[i].args) << "probe " << i;
  }
}

TEST(ServeProtocol, ResponseRoundTripsEveryStatus) {
  Response resp;
  resp.id = 43;
  resp.status = Status::ok;
  resp.results = {
      {Op::vertex, Status::ok, {3, 4, 20, 6, double_bits(0.5)}},
      {Op::edge, Status::not_an_edge, {}},
      {Op::degree_hist, Status::ok, {1, 2, 7}},
      {Op::stats, Status::bad_probe, {}},
  };
  const Response back = decode_response(encode_response(resp));
  EXPECT_EQ(back.id, resp.id);
  EXPECT_EQ(back.status, resp.status);
  ASSERT_EQ(back.results.size(), resp.results.size());
  for (std::size_t i = 0; i < resp.results.size(); ++i) {
    EXPECT_EQ(back.results[i].op, resp.results[i].op) << "result " << i;
    EXPECT_EQ(back.results[i].status, resp.results[i].status)
        << "result " << i;
    EXPECT_EQ(back.results[i].words, resp.results[i].words)
        << "result " << i;
  }
}

TEST(ServeProtocol, ErrorResponsesRoundTrip) {
  for (const Status s : {Status::overloaded, Status::malformed,
                         Status::shutting_down}) {
    const Response back = decode_response(encode_response({9, s, {}}));
    EXPECT_EQ(back.id, 9u);
    EXPECT_EQ(back.status, s);
    EXPECT_TRUE(back.results.empty());
  }
}

TEST(ServeProtocol, RecordsRoundTripBitExact) {
  kron::VertexRecord v;
  v.p = 11;
  v.degree = 6;
  v.two_hop = 60;
  v.squares = 81;
  v.closure = 0.6;
  const auto v2 = decode_vertex_record(encode_record(v));
  EXPECT_EQ(v2.p, v.p);
  EXPECT_EQ(v2.degree, v.degree);
  EXPECT_EQ(v2.two_hop, v.two_hop);
  EXPECT_EQ(v2.squares, v.squares);
  EXPECT_EQ(double_bits(v2.closure), double_bits(v.closure));

  kron::EdgeRecord e;
  e.p = 2;
  e.q = 11;
  e.degree_p = 8;
  e.degree_q = 6;
  e.squares = 23;
  e.gamma = 0.657142857142857;
  const auto e2 = decode_edge_record(encode_record(e));
  EXPECT_EQ(e2.p, e.p);
  EXPECT_EQ(e2.q, e.q);
  EXPECT_EQ(e2.degree_p, e.degree_p);
  EXPECT_EQ(e2.degree_q, e.degree_q);
  EXPECT_EQ(e2.squares, e.squares);
  EXPECT_EQ(double_bits(e2.gamma), double_bits(e.gamma));

  const StatsRecord s{28, 96, 654};
  const auto s2 = decode_stats_record(encode_record(s));
  EXPECT_EQ(s2.num_vertices, s.num_vertices);
  EXPECT_EQ(s2.num_edges, s.num_edges);
  EXPECT_EQ(s2.global_squares, s.global_squares);

  const std::vector<std::pair<count_t, index_t>> hist = {{3, 4}, {6, 8}};
  EXPECT_EQ(decode_hist(encode_hist(hist)), hist);
}

TEST(ServeProtocol, RecordDecodersIgnoreAppendedWords) {
  // The versioning rule: within a protocol version, records may only grow
  // by appending words, and clients ignore trailing words they don't know.
  auto words = encode_record(StatsRecord{5, 6, 7});
  words.push_back(999);
  const auto s = decode_stats_record(words);
  EXPECT_EQ(s.num_vertices, 5);
  EXPECT_EQ(s.num_edges, 6);
  EXPECT_EQ(s.global_squares, 7);
}

TEST(ServeProtocol, GoldenStatsFrameBytes) {
  // Request{id=7, probes={stats}} sealed: the exact wire bytes.  This is
  // the compatibility contract — if this test breaks, the magic digit must
  // be bumped (see the versioning rule in protocol.hpp).
  const Request req{7, {Probe::stats()}};
  const auto frame = seal_frame(encode_request(req));
  const std::uint8_t expected[] = {
      0x4b, 0x52, 0x4e, 0x4c, 0x53, 0x52, 0x56, 0x32, // "KRNLSRV2"
      0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 32 payload bytes
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // id = 7
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 1 probe
      0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // Op::stats
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 0 args
      0x9b, 0x16, 0x0f, 0xa0, 0x66, 0x21, 0xd8, 0x75, // fnv1a64_words
  };
  ASSERT_EQ(frame.size(), sizeof expected);
  for (std::size_t i = 0; i < sizeof expected; ++i) {
    EXPECT_EQ(frame[i], expected[i]) << "byte " << i;
  }
  const Request back = decode_request(unseal_frame(frame));
  EXPECT_EQ(back.id, 7u);
  ASSERT_EQ(back.probes.size(), 1u);
  EXPECT_EQ(back.probes[0].op, Op::stats);
}

TEST(ServeProtocol, GoldenServerStatsFrameBytes) {
  // The introspection probe's wire layout is part of the same
  // compatibility contract as the stats frame above: one arg selecting
  // the snapshot format.
  const Request req{9, {Probe::server_stats(StatsFormat::json)}};
  const auto frame = seal_frame(encode_request(req));
  const std::uint8_t expected[] = {
      0x4b, 0x52, 0x4e, 0x4c, 0x53, 0x52, 0x56, 0x32, // "KRNLSRV2"
      0x28, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 40 payload bytes
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // id = 9
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 1 probe
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // Op::server_stats
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 1 arg
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // StatsFormat::json
      0x11, 0x7b, 0x38, 0xc6, 0x0a, 0x3b, 0xe0, 0xa0, // fnv1a64_words
  };
  ASSERT_EQ(frame.size(), sizeof expected);
  for (std::size_t i = 0; i < sizeof expected; ++i) {
    EXPECT_EQ(frame[i], expected[i]) << "byte " << i;
  }
  const Request back = decode_request(unseal_frame(frame));
  ASSERT_EQ(back.probes.size(), 1u);
  EXPECT_EQ(back.probes[0].op, Op::server_stats);
  ASSERT_EQ(back.probes[0].args.size(), 1u);
  EXPECT_EQ(back.probes[0].args[0],
            static_cast<word_t>(StatsFormat::json));
}

TEST(ServeProtocol, StatsTextRoundTripsUtf8) {
  const std::string text =
      "{\"schema\":\"kronlab-stats-v1\",\"uptime_seconds\":1.5}";
  for (const auto format :
       {StatsFormat::json, StatsFormat::prometheus}) {
    const auto words = encode_stats_text(format, text);
    ASSERT_GE(words.size(), 2u);
    EXPECT_EQ(words[0], static_cast<word_t>(format));
    EXPECT_EQ(words[1], static_cast<word_t>(text.size()));
    EXPECT_EQ(decode_stats_text(words), text);
  }
  // Non-multiple-of-8 lengths exercise the zero-padded tail word.
  for (std::size_t len : {0u, 1u, 7u, 8u, 9u, 63u}) {
    const std::string t(len, 'x');
    EXPECT_EQ(decode_stats_text(encode_stats_text(StatsFormat::json, t)),
              t);
  }
}

TEST(ServeProtocol, StatsTextDecodeIgnoresTrailingWords) {
  auto words = encode_stats_text(StatsFormat::json, "{}");
  words.push_back(12345); // future appended word
  EXPECT_EQ(decode_stats_text(words), "{}");
}

TEST(ServeProtocol, StatsTextRejectsMalformedWords) {
  EXPECT_THROW((void)decode_stats_text({}), protocol_error);
  EXPECT_THROW((void)decode_stats_text({0}), protocol_error);
  // Claimed length larger than the words actually carried.
  EXPECT_THROW((void)decode_stats_text({0, 64, 0}), protocol_error);
  // Negative length.
  EXPECT_THROW((void)decode_stats_text({0, -1}), protocol_error);
  // Oversized text refuses to encode (it could never frame).
  const std::string huge(max_frame_bytes, 'x');
  EXPECT_THROW((void)encode_stats_text(StatsFormat::json, huge),
               protocol_error);
}

TEST(ServeProtocol, DoubleBitsAreLossless) {
  for (const double v : {0.0, 1.0, -1.0, 0.6, 1e-300, 1e300, 1.0 / 3.0}) {
    EXPECT_EQ(bits_double(double_bits(v)), v);
  }
}

TEST(ServeProtocol, DecodeRejectsGrammarViolations) {
  EXPECT_THROW((void)decode_request({}), protocol_error);
  EXPECT_THROW((void)decode_request({1}), protocol_error);   // no count
  EXPECT_THROW((void)decode_request({1, 0}), protocol_error); // empty batch
  EXPECT_THROW(
      (void)decode_request({1, static_cast<word_t>(max_batch_probes) + 1}),
      protocol_error);
  EXPECT_THROW((void)decode_request({1, 1, 1, 99}), protocol_error); // args
  // Trailing garbage past the last probe.
  auto words = encode_request({1, {Probe::stats()}});
  words.push_back(0);
  EXPECT_THROW((void)decode_request(words), protocol_error);
  // Response-side: negative result count, truncated result body.
  EXPECT_THROW((void)decode_response({1, 0, -1}), protocol_error);
  EXPECT_THROW((void)decode_response({1, 0, 1, 1, 0, 5}), protocol_error);
}

TEST(ServeProtocol, SealRejectsOversizedPayloads) {
  const std::vector<word_t> huge(max_frame_bytes / sizeof(word_t) + 1, 0);
  EXPECT_THROW((void)seal_frame(huge), protocol_error);
}

// ---------------------------------------------------------------------------
// Served records equal direct oracle records, byte for byte.

TEST(ServeEndToEnd, ServedRecordsMatchDirectOracle) {
  const auto kp = make_product();
  Server server(kp);
  auto [client_end, server_end] = local_pair();
  server.adopt(std::move(server_end));
  Client client(std::move(client_end));

  const kron::GroundTruthOracle direct(kp);
  for (index_t p = 0; p < kp.num_vertices(); ++p) {
    const auto got = client.vertex(p);
    const auto want = direct.vertex(p);
    EXPECT_EQ(encode_record(got), encode_record(want)) << "vertex " << p;
    for (index_t q = 0; q < kp.num_vertices(); ++q) {
      const auto ge = client.try_edge(p, q);
      const auto we = direct.try_edge(p, q);
      ASSERT_EQ(ge.has_value(), we.has_value()) << p << "," << q;
      if (we) {
        EXPECT_EQ(encode_record(*ge), encode_record(*we)) << p << "," << q;
      }
    }
  }
  server.stop();
}

TEST(ServeEndToEnd, ServedHistogramAndStatsMatchDirect) {
  const auto kp = make_product();
  Server server(kp);
  auto [client_end, server_end] = local_pair();
  server.adopt(std::move(server_end));
  Client client(std::move(client_end));

  const kron::GroundTruthOracle direct(kp);
  const auto hist_map = direct.degree_histogram();
  const std::vector<std::pair<count_t, index_t>> full(hist_map.begin(),
                                                      hist_map.end());
  EXPECT_EQ(client.degree_histogram(0, kp.num_vertices()), full);
  // A genuine slice: drop the first and last degree class.
  if (full.size() >= 3) {
    const std::vector<std::pair<count_t, index_t>> inner(
        full.begin() + 1, full.end() - 1);
    EXPECT_EQ(client.degree_histogram(full.front().first + 1,
                                      full.back().first - 1),
              inner);
  }
  const auto s = client.stats();
  EXPECT_EQ(s.num_vertices, kp.num_vertices());
  EXPECT_EQ(s.num_edges, kp.num_edges());
  EXPECT_EQ(s.global_squares, kron::global_squares(kp));
  server.stop();
}

TEST(ServeEndToEnd, SeededSamplesAreDeterministic) {
  const auto kp = make_product();
  Server server(kp);
  auto [client_end, server_end] = local_pair();
  server.adopt(std::move(server_end));
  Client client(std::move(client_end));

  // Same seed → same record (the property that makes retries idempotent);
  // the draw must match a direct oracle draw from the same seed.
  const auto a = client.sample_edge(1234);
  const auto b = client.sample_edge(1234);
  EXPECT_EQ(encode_record(a), encode_record(b));
  Rng rng(1234);
  const auto want = server.oracle().sample_edge(rng);
  EXPECT_EQ(encode_record(a), encode_record(want));
  server.stop();
}

TEST(ServeEndToEnd, BatchedFrameAnswersInOrder) {
  const auto kp = make_product();
  Server server(kp);
  auto [client_end, server_end] = local_pair();
  server.adopt(std::move(server_end));
  Client client(std::move(client_end));

  std::vector<Probe> probes;
  for (index_t p = 0; p < 8; ++p) probes.push_back(Probe::vertex(p));
  probes.push_back(Probe::edge(-1, 0)); // not_an_edge mixed into the batch
  probes.push_back(Probe::stats());
  const Response resp = client.call(std::move(probes));
  EXPECT_EQ(resp.status, Status::ok);
  ASSERT_EQ(resp.results.size(), 10u);
  for (index_t p = 0; p < 8; ++p) {
    const auto& r = resp.results[static_cast<std::size_t>(p)];
    EXPECT_EQ(r.op, Op::vertex);
    EXPECT_EQ(r.status, Status::ok);
    EXPECT_EQ(decode_vertex_record(r.words).p, p);
  }
  EXPECT_EQ(resp.results[8].status, Status::not_an_edge);
  EXPECT_EQ(resp.results[9].status, Status::ok);
  server.stop();
}

TEST(ServeEndToEnd, BadProbesGetTypedStatusNotDisconnect) {
  const auto kp = make_product();
  Server server(kp);
  auto [client_end, server_end] = local_pair();
  server.adopt(std::move(server_end));
  Client client(std::move(client_end));

  const Response resp = client.call({
      {static_cast<Op>(99), {}},            // unknown opcode
      {Op::vertex, {}},                     // missing arg
      {Op::vertex, {kp.num_vertices()}},    // out of range
      {Op::degree_hist, {5, 1}},            // lo > hi
      Probe::stats(),                       // still answered
  });
  EXPECT_EQ(resp.status, Status::ok);
  ASSERT_EQ(resp.results.size(), 5u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(resp.results[static_cast<std::size_t>(i)].status,
              Status::bad_probe)
        << "probe " << i;
  }
  EXPECT_EQ(resp.results[4].status, Status::ok);
  server.stop();
}

/// What the direct oracle says one probe of the mixed frame below must
/// answer: the record words when ok, none otherwise.
ProbeResult direct_answer(const kron::GroundTruthOracle& direct,
                          const Probe& probe) {
  const auto& a = probe.args;
  try {
    switch (probe.op) {
      case Op::vertex:
        if (a.size() != 1 || a[0] < 0 || a[0] >= direct.num_vertices()) break;
        return {probe.op, Status::ok, encode_record(direct.vertex(a[0]))};
      case Op::edge:
        if (a.size() != 2) break;
        if (const auto e = direct.try_edge(a[0], a[1])) {
          return {probe.op, Status::ok, encode_record(*e)};
        }
        return {probe.op, Status::not_an_edge, {}};
      case Op::sample_edge: {
        Rng rng(static_cast<std::uint64_t>(a[0]));
        return {probe.op, Status::ok, encode_record(direct.sample_edge(rng))};
      }
      default: break;
    }
  } catch (const error&) {
  }
  return {probe.op, Status::bad_probe, {}};
}

TEST(ServeEndToEnd, MidFrameErrorsKeepTheirSlots) {
  // One 84-probe frame mixes ok vertex and edge probes, not_an_edge, a
  // wrong arg count, an out-of-range vertex and a sample_edge, which
  // throws inside the oracle on the edgeless product, so its partly
  // written result must be rolled back.  Sent alone (below the server's
  // 256-probe fan-out batch) and repeated four times (336 probes, fanned
  // out in 32-probe chunks), every probe keeps its own status in order
  // and every ok record equals the direct oracle's words.
  const auto normal = make_product();
  const auto edgeless = kron::BipartiteKronecker::raw(
      graph::from_undirected_edges(3, {}), gen::path_graph(4));
  for (const auto* kp : {&normal, &edgeless}) {
    const kron::GroundTruthOracle direct(*kp);
    const index_t n = kp->num_vertices();
    std::vector<Probe> frame;
    for (index_t i = 0; i < 12; ++i) {
      frame.push_back(Probe::vertex(i * 5 % n));
      frame.push_back(Probe::edge(i % n, (i * 7 + 3) % n));
      frame.push_back(Probe::edge(i % n, (i * 3 + 1) % n));
      frame.push_back(Probe::edge(-1, i));
      frame.push_back({Op::vertex, {i, i}});
      frame.push_back(Probe::vertex(n + i));
      frame.push_back(Probe::sample_edge(static_cast<std::uint64_t>(i)));
    }
    std::vector<Probe> fanned;
    for (int r = 0; r < 4; ++r) {
      fanned.insert(fanned.end(), frame.begin(), frame.end());
    }
    Server server(*kp, ServerOptions{});
    auto [client_end, server_end] = local_pair();
    server.adopt(std::move(server_end));
    Client client(std::move(client_end));
    std::set<std::pair<Op, Status>> seen;
    for (const auto* sent : {&frame, &fanned}) {
      const Response resp = client.call(*sent);
      ASSERT_EQ(resp.status, Status::ok);
      ASSERT_EQ(resp.results.size(), sent->size());
      for (std::size_t i = 0; i < sent->size(); ++i) {
        const ProbeResult want = direct_answer(direct, (*sent)[i]);
        const ProbeResult& got = resp.results[i];
        EXPECT_EQ(got.op, want.op) << "probe " << i;
        EXPECT_EQ(got.status, want.status) << "probe " << i;
        EXPECT_EQ(got.words, want.words) << "probe " << i;
        seen.emplace(got.op, got.status);
      }
    }
    server.stop();
    EXPECT_TRUE(seen.count({Op::vertex, Status::ok}));
    EXPECT_TRUE(seen.count({Op::edge, Status::not_an_edge}));
    EXPECT_TRUE(seen.count({Op::vertex, Status::bad_probe}));
    if (kp == &normal) {
      EXPECT_TRUE(seen.count({Op::edge, Status::ok}));
      EXPECT_TRUE(seen.count({Op::sample_edge, Status::ok}));
    } else {
      EXPECT_TRUE(seen.count({Op::sample_edge, Status::bad_probe}));
    }
  }
}

} // namespace
} // namespace kronlab::serve
