#include "kronlab/serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "kronlab/common/timer.hpp"
#include "kronlab/kron/ground_truth.hpp"
#include "kronlab/obs/log.hpp"
#include "kronlab/obs/trace.hpp"
#include "kronlab/obs/watchdog.hpp"
#include "kronlab/obs/stats.hpp"
#include "kronlab/parallel/parallel_for.hpp"

namespace kronlab::serve {

/// Per-connection state.  The Connection outlives its socket activity via
/// shared_ptr: the reader thread, the conns_ registry, and every queued
/// WorkItem hold references, so a client disconnecting mid-frame can
/// never leave an executor writing through freed memory.
struct Server::Connection {
  std::unique_ptr<Transport> transport;
  std::thread reader;
  Mutex write_mu; ///< serializes response frames onto the stream
  std::atomic<bool> reader_done{false};
};

Server::Server(const kron::BipartiteKronecker& kp, ServerOptions opt)
    : oracle_(kp), opt_(opt) {
  KRONLAB_REQUIRE(opt_.executors > 0, "server needs at least one executor");
  KRONLAB_REQUIRE(opt_.queue_depth > 0, "queue depth must be positive");
  KRONLAB_REQUIRE(opt_.max_connections > 0,
                  "connection limit must be positive");
  stats_record_ = {kp.num_vertices(), kp.num_edges(),
                   kron::global_squares(kp)};
  for (const auto& [degree, vertices] : oracle_.degree_histogram()) {
    degree_hist_.emplace_back(degree, vertices);
  }
  request_hist_ = &obs::histogram("serve/request");
  for (std::size_t i = 1; i < op_hist_.size(); ++i) {
    op_hist_[i] = &obs::histogram(std::string("serve/op/") +
                                  op_name(static_cast<Op>(i)));
  }
  queue_depth_gauge_ = &obs::gauge("serve/queue_depth");
  start_ns_ = timer::now_ns();
  executors_.reserve(opt_.executors);
  for (std::size_t i = 0; i < opt_.executors; ++i) {
    executors_.emplace_back([this, i] { executor_loop(i); });
  }
}

Server::~Server() { stop(); }

void Server::start(std::unique_ptr<Listener> listener) {
  KRONLAB_REQUIRE(listener != nullptr, "start() needs a listener");
  KRONLAB_REQUIRE(!listener_ && !stopped_.load(),
                  "start() may run once, before stop()");
  listener_ = std::move(listener);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::accept_loop() {
  trace::set_thread_name("serve accept");
  while (auto conn = listener_->accept()) {
    adopt(std::move(conn));
  }
}

void Server::adopt(std::unique_ptr<Transport> transport) {
  auto conn = std::make_shared<Connection>();
  conn->transport = std::move(transport);
  if (draining_.load(std::memory_order_acquire)) {
    connections_rejected_.fetch_add(1, std::memory_order_relaxed);
    obs::log(obs::LogLevel::info, "serve", "conn_rejected")
        .field("reason", "shutting_down");
    send(*conn, encode_response({0, Status::shutting_down, {}}));
    return; // transport closes with the Connection
  }
  std::size_t active = 0;
  {
    MutexLock lock(conn_mu_);
    reap_connections();
    for (const auto& c : conns_) {
      if (!c->reader_done.load(std::memory_order_acquire)) ++active;
    }
    if (active < opt_.max_connections) {
      connections_accepted_.fetch_add(1, std::memory_order_relaxed);
      conn->reader = std::thread([this, conn] { reader_loop(conn); });
      conns_.push_back(std::move(conn));
      return;
    }
  }
  // Rejection answer outside conn_mu_: a slow peer must not be able to
  // stall the accept path behind its socket (found by kronlab_analyze's
  // blocking-under-lock rule).  The conn is not in conns_, so nothing
  // races the write.
  connections_rejected_.fetch_add(1, std::memory_order_relaxed);
  obs::log(obs::LogLevel::warn, "serve", "conn_rejected")
      .field("reason", "overloaded")
      .field("active", static_cast<std::uint64_t>(active))
      .field("max", static_cast<std::uint64_t>(opt_.max_connections));
  send(*conn, encode_response({0, Status::overloaded, {}}));
}

void Server::reap_connections() {
  // Joining a finished reader is quick; live readers are left alone, so
  // the accept path never blocks behind a long-lived connection.
  std::erase_if(conns_, [](const std::shared_ptr<Connection>& c) {
    if (!c->reader_done.load(std::memory_order_acquire)) return false;
    if (c->reader.joinable()) c->reader.join();
    return true;
  });
}

void Server::reader_loop(const std::shared_ptr<Connection>& conn) {
  trace::set_thread_name("serve reader");
  Transport& t = *conn->transport;
  while (true) {
    std::vector<word_t> payload;
    try {
      auto frame = read_frame(t, no_deadline);
      if (!frame) break; // clean EOF
      payload = std::move(*frame);
    } catch (const checksum_error& e) {
      // Framing is intact (the full frame was read): answer and go on.
      malformed_.fetch_add(1, std::memory_order_relaxed);
      obs::log(obs::LogLevel::warn, "serve", "frame_checksum_error")
          .field("what", e.what());
      send(*conn, encode_response({0, Status::malformed, {}}));
      continue;
    } catch (const protocol_error& e) {
      // Bad magic / implausible length: the byte stream may be out of
      // sync — answer best-effort and drop the connection.  The close is
      // immediate (not deferred to reaping) so the peer observes EOF, at
      // the cost of any still-executing responses on this stream.
      malformed_.fetch_add(1, std::memory_order_relaxed);
      obs::log(obs::LogLevel::warn, "serve", "frame_protocol_error")
          .field("what", e.what())
          .field("action", "drop_connection");
      send(*conn, encode_response({0, Status::malformed, {}}));
      t.shutdown();
      break;
    } catch (const error&) {
      break; // mid-frame disconnect or shutdown_read()
    }
    frames_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t id = peek_request_id(payload);
    if (draining_.load(std::memory_order_acquire)) {
      shed_shutdown_.fetch_add(1, std::memory_order_relaxed);
      send(*conn, encode_response({id, Status::shutting_down, {}}));
      continue;
    }
    in_flight_.fetch_add(1, std::memory_order_acq_rel);
    if (!queue_push({conn, std::move(payload)})) {
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      overloaded_.fetch_add(1, std::memory_order_relaxed);
      send(*conn, encode_response({id, Status::overloaded, {}}));
    }
  }
  conn->reader_done.store(true, std::memory_order_release);
}

void Server::executor_loop(std::size_t id) {
  trace::set_thread_name("serve exec " + std::to_string(id));
  while (auto item = queue_pop()) {
    process(*item);
  }
}

void Server::process(WorkItem& item) {
  trace::Span span("serve", "request");
  obs::LatencyScope latency(*request_hist_);
  obs::StallGuard stall_guard("serve/request");
  const std::vector<word_t>& payload = item.payload;
  std::vector<word_t> out;
  try {
    const std::vector<ProbeView> probes = parse_request(payload);
    // Per-op totals are tallied here and added once per frame, so the
    // executors share no counter cache line per probe.
    std::array<std::uint64_t, 8> tally{};
    for (const ProbeView& p : probes) {
      const auto opi = static_cast<std::size_t>(p.op);
      if (opi < tally.size()) ++tally[opi];
    }
    for (std::size_t i = 0; i < tally.size(); ++i) {
      if (tally[i] > 0) {
        probes_by_op_[i].fetch_add(tally[i], std::memory_order_relaxed);
      }
    }
    probes_.fetch_add(probes.size(), std::memory_order_relaxed);
    out.reserve(3 + 8 * probes.size());
    out.insert(out.end(), {payload[0], static_cast<word_t>(Status::ok),
                           static_cast<word_t>(probes.size())});
    // Batches of at least kParallelBatch probes fan out in kChunk-probe
    // chunks through the parallel runtime and are joined in order;
    // concurrent executors serialize on the pool's run mutex, which is the
    // documented multi-caller discipline of ThreadPool::run.  Smaller
    // batches run on the executor.
    constexpr std::size_t kParallelBatch = 256;
    constexpr std::size_t kChunk = 32;
    if (probes.size() >= kParallelBatch) {
      std::vector<std::vector<word_t>> chunks((probes.size() + kChunk - 1) /
                                              kChunk);
      parallel_for(
          0, static_cast<index_t>(chunks.size()),
          [&](index_t c) {
            const auto first = static_cast<std::size_t>(c) * kChunk;
            encode_probes(payload,
                          std::span(probes).subspan(
                              first, std::min(kChunk, probes.size() - first)),
                          chunks[static_cast<std::size_t>(c)]);
          },
          global_pool(), /*grain=*/1);
      for (const auto& chunk : chunks) {
        out.insert(out.end(), chunk.begin(), chunk.end());
      }
    } else {
      encode_probes(payload, probes, out);
    }
  } catch (const protocol_error&) {
    malformed_.fetch_add(1, std::memory_order_relaxed);
    out = encode_response({peek_request_id(payload), Status::malformed, {}});
  }
  send(*item.conn, out);
  responses_.fetch_add(1, std::memory_order_relaxed);
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
}

void Server::encode_probes(std::span<const word_t> payload,
                           std::span<const ProbeView> probes,
                           std::vector<word_t>& out) {
  for (const ProbeView& p : probes) {
    const std::size_t start = out.size();
    out.insert(out.end(), {static_cast<word_t>(p.op), 0, 0});
    Status status = Status::bad_probe;
    {
      // Sampled (1-in-8): a probe runs in well under a microsecond, so
      // the two clock reads of an unconditional scope would cost ~10% of
      // throughput (X18).  probes_by_op_ keeps the exact totals.
      const auto opi = static_cast<std::size_t>(p.op);
      obs::SampledLatencyScope latency(opi < op_hist_.size() ? op_hist_[opi]
                                                             : nullptr);
      try {
        status = exec_probe(p.op, payload.subspan(p.offset, p.argc), out);
      } catch (const error&) {
        // A probe must never take the daemon down; the typed error
        // becomes a typed status (e.g. sample_edge on an edgeless
        // product).
      }
    }
    if (status != Status::ok) out.resize(start + 3); // roll back its words
    out[start + 1] = static_cast<word_t>(status);
    out[start + 2] = static_cast<word_t>(out.size() - start - 3);
  }
}

Status Server::exec_probe(Op op, std::span<const word_t> args,
                          std::vector<word_t>& out) {
  switch (op) {
    case Op::vertex:
      if (args.size() != 1 || args[0] < 0 ||
          args[0] >= oracle_.num_vertices()) {
        return Status::bad_probe;
      }
      append_record(out, oracle_.vertex(args[0]));
      return Status::ok;
    case Op::edge: {
      if (args.size() != 2) return Status::bad_probe;
      const auto rec = oracle_.try_edge(args[0], args[1]);
      if (!rec) return Status::not_an_edge;
      append_record(out, *rec);
      return Status::ok;
    }
    case Op::degree_hist: {
      if (args.size() != 2 || args[0] > args[1]) return Status::bad_probe;
      using Entry = std::pair<count_t, index_t>;
      const auto begin = std::lower_bound(
          degree_hist_.begin(), degree_hist_.end(), args[0],
          [](const Entry& e, count_t d) { return e.first < d; });
      const auto end = std::upper_bound(
          begin, degree_hist_.end(), args[1],
          [](count_t d, const Entry& e) { return d < e.first; });
      append_hist(out, {begin, end});
      return Status::ok;
    }
    case Op::sample_vertex: {
      if (args.size() != 1) return Status::bad_probe;
      Rng rng(static_cast<std::uint64_t>(args[0]));
      append_record(out, oracle_.sample_vertex(rng));
      return Status::ok;
    }
    case Op::sample_edge: {
      if (args.size() != 1) return Status::bad_probe;
      Rng rng(static_cast<std::uint64_t>(args[0]));
      append_record(out, oracle_.sample_edge(rng));
      return Status::ok;
    }
    case Op::stats:
      if (!args.empty()) return Status::bad_probe;
      append_record(out, stats_record_);
      return Status::ok;
    case Op::server_stats: {
      if (args.size() != 1) return Status::bad_probe;
      const auto format = static_cast<StatsFormat>(args[0]);
      if (format != StatsFormat::json && format != StatsFormat::prometheus) {
        return Status::bad_probe;
      }
      const auto words = encode_stats_text(format, stats_text(format));
      out.insert(out.end(), words.begin(), words.end());
      return Status::ok;
    }
  }
  return Status::bad_probe; // unknown opcode
}

void Server::send(Connection& conn, const std::vector<word_t>& payload) {
  MutexLock lock(conn.write_mu);
  try {
    // kronlab-analyze: allow(blocking-under-lock) write_mu is this
    // connection's dedicated frame mutex; it exists precisely to keep
    // concurrent responses from interleaving bytes, and nothing else
    // ever waits on it while doing work
    write_frame(*conn.transport, payload);
  } catch (const error& e) {
    // Peer vanished mid-response; its reader sees the close and the
    // connection is reaped.  Dropping the write is the only option left.
    obs::log(obs::LogLevel::debug, "serve", "response_write_failed")
        .field("what", e.what());
  }
}

bool Server::queue_push(WorkItem item) {
  MutexLock lock(queue_mu_);
  if (queue_closed_ || queue_.size() >= opt_.queue_depth) return false;
  queue_.push_back(std::move(item));
  queue_depth_gauge_->set(static_cast<std::int64_t>(queue_.size()));
  queue_cv_.notify_one();
  return true;
}

std::optional<Server::WorkItem> Server::queue_pop() {
  MutexLock lock(queue_mu_);
  while (queue_.empty() && !queue_closed_) queue_cv_.wait(queue_mu_);
  if (queue_.empty()) return std::nullopt;
  WorkItem item = std::move(queue_.front());
  queue_.pop_front();
  queue_depth_gauge_->set(static_cast<std::int64_t>(queue_.size()));
  return item;
}

void Server::queue_close() {
  MutexLock lock(queue_mu_);
  queue_closed_ = true;
  queue_cv_.notify_all();
}

void Server::stop() {
  if (stopped_.exchange(true)) return;
  draining_.store(true, std::memory_order_release);
  // Structured drain progress at a fixed cadence: a drain that finishes
  // inside the first tick (the common case — and every unit test) logs
  // nothing; a long drain reports its in-flight count every 200ms so an
  // operator watching the daemon's log sees it converging.
  const std::uint64_t drain_begin = timer::now_ns();
  std::atomic<bool> drain_done{false};
  std::thread progress([this, &drain_done, drain_begin] {
    trace::set_thread_name("serve drain");
    int ticks = 0;
    while (!drain_done.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (drain_done.load(std::memory_order_acquire)) break;
      if (++ticks % 4 != 0) continue;
      obs::log(obs::LogLevel::info, "serve", "drain_progress")
          .field("in_flight", in_flight())
          .field("elapsed_ms", (timer::now_ns() - drain_begin) / 1000000);
    }
  });
  if (listener_) listener_->close();
  if (accept_thread_.joinable()) accept_thread_.join();
  // Half-close every connection's read side: readers drain out on EOF
  // while responses to already-admitted frames still flow.
  {
    MutexLock lock(conn_mu_);
    for (const auto& c : conns_) c->transport->shutdown_read();
    for (const auto& c : conns_) {
      // kronlab-analyze: allow(blocking-under-lock) shutdown path: the
      // listener is closed and every read side is half-closed, so each
      // reader exits promptly; conn_mu_ is held to fence out adopt()
      if (c->reader.joinable()) c->reader.join();
    }
  }
  // No reader can push anymore; let the executors finish the backlog.
  queue_close();
  for (auto& e : executors_) e.join();
  executors_.clear();
  {
    MutexLock lock(conn_mu_);
    for (const auto& c : conns_) c->transport->shutdown();
    conns_.clear();
  }
  drain_done.store(true, std::memory_order_release);
  progress.join();
  obs::log(obs::LogLevel::debug, "serve", "drain_complete")
      .field("elapsed_ms", (timer::now_ns() - drain_begin) / 1000000)
      .field("responses", responses_.load(std::memory_order_relaxed));
}

std::string Server::stats_text(StatsFormat format) {
  const ServerStats s = stats();
  const obs::StatsSnapshot snap = obs::stats_snapshot();
  std::size_t queue_depth = 0;
  {
    MutexLock lock(queue_mu_);
    queue_depth = queue_.size();
  }
  const double uptime =
      static_cast<double>(timer::now_ns() - start_ns_) / 1e9;

  if (format == StatsFormat::prometheus) {
    std::string out;
    const auto scalar = [&out](const char* name, const char* type,
                               double v) {
      char line[160];
      std::snprintf(line, sizeof line, "# TYPE %s %s\n%s %.6f\n", name,
                    type, name, v);
      out += line;
    };
    scalar("kronlab_server_uptime_seconds", "gauge", uptime);
    scalar("kronlab_server_in_flight", "gauge",
           static_cast<double>(in_flight()));
    scalar("kronlab_server_queue_depth", "gauge",
           static_cast<double>(queue_depth));
    scalar("kronlab_server_connections_accepted_total", "counter",
           static_cast<double>(s.connections_accepted));
    scalar("kronlab_server_connections_rejected_total", "counter",
           static_cast<double>(s.connections_rejected));
    scalar("kronlab_server_frames_total", "counter",
           static_cast<double>(s.frames));
    scalar("kronlab_server_responses_total", "counter",
           static_cast<double>(s.responses));
    scalar("kronlab_server_probes_total", "counter",
           static_cast<double>(s.probes));
    scalar("kronlab_server_overloaded_total", "counter",
           static_cast<double>(s.overloaded));
    scalar("kronlab_server_malformed_total", "counter",
           static_cast<double>(s.malformed));
    scalar("kronlab_server_shed_shutdown_total", "counter",
           static_cast<double>(s.shed_shutdown));
    out += obs::stats_prometheus(snap);
    return out;
  }

  std::string out = "{\"schema\":\"kronlab-stats-v1\"";
  char buf[64];
  std::snprintf(buf, sizeof buf, ",\"uptime_seconds\":%.3f", uptime);
  out += buf;
  out += ",\"server\":{";
  out += "\"connections_accepted\":" + std::to_string(s.connections_accepted);
  out += ",\"connections_rejected\":" +
         std::to_string(s.connections_rejected);
  out += ",\"frames\":" + std::to_string(s.frames);
  out += ",\"responses\":" + std::to_string(s.responses);
  out += ",\"probes\":" + std::to_string(s.probes);
  out += ",\"overloaded\":" + std::to_string(s.overloaded);
  out += ",\"malformed\":" + std::to_string(s.malformed);
  out += ",\"shed_shutdown\":" + std::to_string(s.shed_shutdown);
  out += ",\"in_flight\":" + std::to_string(in_flight());
  out += ",\"queue_depth\":" + std::to_string(queue_depth);
  out += "},\"probes_by_op\":{";
  for (std::size_t i = 1; i < s.probes_by_op.size(); ++i) {
    if (i > 1) out += ',';
    out += '"';
    out += op_name(static_cast<Op>(i));
    out += "\":" + std::to_string(s.probes_by_op[i]);
  }
  out += "},";
  // Splice in the registry fragment ({"counters":...,"gauges":...,
  // "histograms":...}) minus its opening brace, so the renderer in
  // obs/stats stays the single source of truth for metric formatting.
  out += obs::stats_json(snap).substr(1);
  return out;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_rejected =
      connections_rejected_.load(std::memory_order_relaxed);
  s.frames = frames_.load(std::memory_order_relaxed);
  s.responses = responses_.load(std::memory_order_relaxed);
  s.probes = probes_.load(std::memory_order_relaxed);
  s.overloaded = overloaded_.load(std::memory_order_relaxed);
  s.malformed = malformed_.load(std::memory_order_relaxed);
  s.shed_shutdown = shed_shutdown_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < s.probes_by_op.size(); ++i) {
    s.probes_by_op[i] = probes_by_op_[i].load(std::memory_order_relaxed);
  }
  return s;
}

} // namespace kronlab::serve
