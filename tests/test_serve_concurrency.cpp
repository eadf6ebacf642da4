// Concurrency battery for the query server: a multi-client soak with a
// chaos thread disconnecting mid-frame, shutdown under load, and the
// graceful-drain invariant (in_flight() == 0 after stop(), every admitted
// frame answered).  CI runs this suite under TSan — the locking
// discipline of the reader/executor paths is what is on trial, so
// the test leans on genuine parallelism, not sleeps.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

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

TEST(ServeConcurrency, MultiClientSoakEveryFrameAnswered) {
  const auto kp = make_product();
  ServerOptions opt;
  opt.executors = 4;
  Server server(kp, opt);

  constexpr int kClients = 4;
  constexpr int kFrames = 100;
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kClients; ++c) {
    auto [client_end, server_end] = local_pair();
    server.adopt(std::move(server_end));
    clients.push_back(std::make_unique<Client>(std::move(client_end)));
  }

  std::atomic<int> answered{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client& client = *clients[static_cast<std::size_t>(c)];
      for (int f = 0; f < kFrames; ++f) {
        const index_t p = (c * kFrames + f) % kp.num_vertices();
        const Response resp = client.call(
            {Probe::vertex(p), Probe::stats()});
        ASSERT_EQ(resp.status, Status::ok);
        ASSERT_EQ(resp.results.size(), 2u);
        EXPECT_EQ(decode_vertex_record(resp.results[0].words).p, p);
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(answered.load(), kClients * kFrames);

  server.stop();
  EXPECT_EQ(server.in_flight(), 0u);
  const auto stats = server.stats();
  EXPECT_EQ(stats.frames, static_cast<std::uint64_t>(kClients * kFrames));
  EXPECT_EQ(stats.responses, stats.frames);
  EXPECT_EQ(stats.probes, 2u * static_cast<std::uint64_t>(kClients) *
                              static_cast<std::uint64_t>(kFrames));
  // Per-op totals are tallied once per frame; they must stay exact.
  std::uint64_t by_op = 0;
  for (std::size_t op = 0; op < stats.probes_by_op.size(); ++op) {
    const bool sent = op == static_cast<std::size_t>(Op::vertex) ||
                      op == static_cast<std::size_t>(Op::stats);
    EXPECT_EQ(stats.probes_by_op[op],
              sent ? static_cast<std::uint64_t>(kClients * kFrames) : 0u)
        << op_name(static_cast<Op>(op));
    by_op += stats.probes_by_op[op];
  }
  EXPECT_EQ(by_op, stats.probes);
}

TEST(ServeConcurrency, ChaosDisconnectsNeverDisturbTheSoak) {
  const auto kp = make_product();
  ServerOptions opt;
  opt.executors = 3;
  Server server(kp, opt);

  constexpr int kClients = 3;
  constexpr int kFrames = 60;
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kClients; ++c) {
    auto [client_end, server_end] = local_pair();
    server.adopt(std::move(server_end));
    clients.push_back(std::make_unique<Client>(std::move(client_end)));
  }

  // The chaos thread hammers the server with connections that die at the
  // worst moments: mid-header, mid-payload, right after a valid frame.
  std::atomic<bool> done{false};
  std::thread chaos([&] {
    const auto frame = seal_frame(encode_request({1, {Probe::stats()}}));
    std::uint64_t k = 0;
    while (!done.load(std::memory_order_acquire)) {
      auto [chaos_end, server_end] = local_pair();
      server.adopt(std::move(server_end));
      const std::size_t cut = 1 + (k++ % (frame.size() - 1));
      chaos_end->write_all(frame.data(), cut);
      chaos_end->shutdown(); // vanish mid-frame
      std::this_thread::yield();
    }
  });

  std::atomic<int> answered{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client& client = *clients[static_cast<std::size_t>(c)];
      for (int f = 0; f < kFrames; ++f) {
        const index_t p = (c + f) % kp.num_vertices();
        const Response resp = client.call({Probe::vertex(p)});
        ASSERT_EQ(resp.status, Status::ok);
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  done.store(true, std::memory_order_release);
  chaos.join();

  EXPECT_EQ(answered.load(), kClients * kFrames);
  server.stop();
  EXPECT_EQ(server.in_flight(), 0u);
}

TEST(ServeConcurrency, StopUnderLoadDrainsToZeroInFlight) {
  const auto kp = make_product();
  ServerOptions opt;
  opt.executors = 2;
  Server server(kp, opt);

  constexpr int kClients = 4;
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kClients; ++c) {
    auto [client_end, server_end] = local_pair();
    server.adopt(std::move(server_end));
    clients.push_back(std::make_unique<Client>(
        std::move(client_end),
        RetryPolicy{1, std::chrono::milliseconds(2000)}));
  }

  // Clients fire continuously until the drain cuts them off; every answer
  // they do get must be a well-formed ok or shutting_down frame.
  std::atomic<std::uint64_t> ok_count{0};
  std::atomic<std::uint64_t> shed_count{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client& client = *clients[static_cast<std::size_t>(c)];
      try {
        for (int f = 0;; ++f) {
          const Response resp = client.call(
              {Probe::vertex((c + f) % kp.num_vertices())});
          if (resp.status == Status::shutting_down) {
            shed_count.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          ASSERT_EQ(resp.status, Status::ok);
          ok_count.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (const error&) {
        // Connection torn down by the drain — the expected other ending.
      }
    });
  }

  // Let the soak build up real in-flight work, then pull the plug.
  while (ok_count.load(std::memory_order_relaxed) < 50) {
    std::this_thread::yield();
  }
  server.stop();
  EXPECT_EQ(server.in_flight(), 0u);
  for (auto& t : threads) t.join();

  // Drain accounting: every admitted frame was answered, shed frames were
  // refused with a typed status, and nothing was silently dropped.
  const auto stats = server.stats();
  EXPECT_EQ(stats.responses + stats.shed_shutdown + stats.overloaded,
            stats.frames);
  EXPECT_GE(ok_count.load(), 50u);
}

TEST(ServeConcurrency, StopIsIdempotentAndDoubleStopSafe) {
  const auto kp = make_product();
  Server server(kp);
  auto [client_end, server_end] = local_pair();
  server.adopt(std::move(server_end));
  Client client(std::move(client_end));
  EXPECT_EQ(client.stats().num_vertices, kp.num_vertices());
  server.stop();
  server.stop(); // second stop is a no-op, not a crash
  EXPECT_EQ(server.in_flight(), 0u);
}

TEST(ServeConcurrency, AdoptDuringDrainIsSheddedWithTypedStatus) {
  const auto kp = make_product();
  Server server(kp);
  server.stop();
  auto [client_end, server_end] = local_pair();
  server.adopt(std::move(server_end));
  // The rejected connection got exactly one shutting_down frame, then EOF.
  const auto frame = read_frame(*client_end,
                                std::chrono::milliseconds(5000));
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(decode_response(*frame).status, Status::shutting_down);
  EXPECT_FALSE(
      read_frame(*client_end, std::chrono::milliseconds(5000)).has_value());
}

TEST(ServeConcurrency, ConnectionSlotLimitAnswersOverloaded) {
  const auto kp = make_product();
  ServerOptions opt;
  opt.max_connections = 2;
  Server server(kp, opt);

  std::vector<std::unique_ptr<Transport>> held;
  for (int c = 0; c < 2; ++c) {
    auto [client_end, server_end] = local_pair();
    server.adopt(std::move(server_end));
    held.push_back(std::move(client_end));
  }
  auto [extra_end, server_end] = local_pair();
  server.adopt(std::move(server_end));
  const auto frame =
      read_frame(*extra_end, std::chrono::milliseconds(5000));
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(decode_response(*frame).status, Status::overloaded);
  EXPECT_EQ(server.stats().connections_rejected, 1u);

  // Freeing a slot (client disconnect) admits the next connection.
  held[0]->shutdown();
  bool admitted = false;
  for (int tries = 0; tries < 200 && !admitted; ++tries) {
    auto [retry_end, retry_server_end] = local_pair();
    server.adopt(std::move(retry_server_end));
    Client probe(std::move(retry_end),
                 RetryPolicy{1, std::chrono::milliseconds(2000)});
    try {
      (void)probe.stats();
      admitted = true;
    } catch (const error&) {
      std::this_thread::yield(); // slot not reaped yet — try again
    }
  }
  EXPECT_TRUE(admitted);
  server.stop();
}

TEST(ServeConcurrency, ParallelBatchFanOutMatchesSerial) {
  // A batch past parallel_batch_threshold runs through the parallel
  // runtime; results must land in probe order regardless.
  const auto kp = make_product();
  ServerOptions opt;
  opt.parallel_batch_threshold = 64;
  Server server(kp, opt);
  auto [client_end, server_end] = local_pair();
  server.adopt(std::move(server_end));
  Client client(std::move(client_end));

  std::vector<Probe> probes;
  constexpr int kBatch = 300; // > threshold → dynamic dispatch
  for (int i = 0; i < kBatch; ++i) {
    probes.push_back(Probe::vertex(i % kp.num_vertices()));
  }
  const Response resp = client.call(std::move(probes));
  ASSERT_EQ(resp.status, Status::ok);
  ASSERT_EQ(resp.results.size(), static_cast<std::size_t>(kBatch));
  for (int i = 0; i < kBatch; ++i) {
    const auto& r = resp.results[static_cast<std::size_t>(i)];
    ASSERT_EQ(r.status, Status::ok) << "probe " << i;
    EXPECT_EQ(decode_vertex_record(r.words).p, i % kp.num_vertices());
  }
  server.stop();
}

} // namespace
} // namespace kronlab::serve
