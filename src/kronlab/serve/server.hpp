// kronlab/serve/server.hpp
//
// The ground-truth oracle query server behind kronlab_served.
//
// One Server owns a GroundTruthOracle over a BipartiteKronecker spec and
// answers protocol.hpp probes arriving on any number of connections.  The
// moving parts:
//
//   * an accept thread (when started with a Listener) admitting
//     connections up to a slot limit — a connection beyond it gets one
//     `overloaded` frame and a close, never a silent drop;
//   * one reader thread per connection, which does nothing but frame
//     decoding and admission: a decoded request frame is pushed onto a
//     bounded work queue, and when the queue is full the reader answers
//     `overloaded` immediately (clients see backpressure as data, not as
//     an ever-growing queue — the admission discipline of the ROADMAP's
//     "millions of users" story);
//   * a fixed pool of executor threads popping frames off the queue,
//     running every probe in the batch (large batches fan out through the
//     parallel runtime's dynamic dispatcher), and writing the response
//     under the connection's write mutex.  An executor parses the
//     request once into views over the reader's buffer and writes every
//     result straight into one response word vector; vertex probes go
//     to the oracle directly (at ~25 ns, nothing in front of it pays);
//   * a per-request obs/trace span and "serve/request" latency
//     histogram, so a traced run shows one "request" span per frame and
//     the bench harness folds serve-side latency into its JSON.
//
// Shutdown (stop(), also the SIGTERM path of kronlab_served) is a
// graceful drain: stop accepting, half-close every connection's read
// side, join the readers, let the executors finish every admitted frame
// (responses still flow — only reads are shut), then close the sockets.
// After stop() returns, in_flight() == 0 by construction, which
// test_serve_concurrency asserts under TSan.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "kronlab/common/sync.hpp"
#include "kronlab/kron/oracle.hpp"
#include "kronlab/obs/stats.hpp"
#include "kronlab/serve/protocol.hpp"
#include "kronlab/serve/transport.hpp"

namespace kronlab::serve {

struct ServerOptions {
  std::size_t executors = 2;        ///< request-executor threads
  std::size_t queue_depth = 64;     ///< admitted-but-unserved frame cap
  std::size_t max_connections = 64; ///< concurrent connection slots
  /// Always 0: the vertex-record cache is gone.  Kept only for the
  /// benchmark's frozen context field; nothing reads or sets it.
  static constexpr std::size_t cache_capacity = 0;
  /// Batches with at least this many probes fan out through the parallel
  /// runtime (parallel_for_dynamic); smaller ones run on the executor.
  std::size_t parallel_batch_threshold = 256;
};

/// Monotonic counters, snapshotted by stats().  `probes_by_op` is indexed
/// by Op's integer value (slot 0 unused).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0; ///< over the slot limit
  std::uint64_t frames = 0;               ///< well-framed requests read
  std::uint64_t responses = 0;            ///< responses written
  std::uint64_t probes = 0;               ///< probes executed
  std::uint64_t overloaded = 0;           ///< frames refused at admission
  std::uint64_t malformed = 0;            ///< corrupt/ill-formed frames
  std::uint64_t shed_shutdown = 0;        ///< frames refused while draining
  /// Always 0, like ServerOptions::cache_capacity.
  static constexpr std::uint64_t cache_hits = 0;
  static constexpr std::uint64_t cache_misses = 0;
  std::array<std::uint64_t, 8> probes_by_op{};
};

class Server {
public:
  explicit Server(const kron::BipartiteKronecker& kp,
                  ServerOptions opt = {});

  /// Graceful stop() if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Start accepting on `listener` (takes ownership; spawns the accept
  /// thread).  May be called at most once, before stop().
  void start(std::unique_ptr<Listener> listener);

  /// Serve a pre-connected transport (tests / in-process benches hand
  /// over one end of local_pair()).  Subject to the connection slot
  /// limit, like an accepted socket.
  void adopt(std::unique_ptr<Transport> conn);

  /// Graceful drain: stop accepting, finish every admitted frame, close
  /// every connection, join every thread.  Idempotent.
  void stop();

  /// Admitted frames not yet fully answered (queued + executing).  Zero
  /// after stop() returns — the drain invariant the tests assert.
  [[nodiscard]] std::uint64_t in_flight() const {
    return in_flight_.load(std::memory_order_acquire);
  }

  [[nodiscard]] ServerStats stats() const;

  /// Live telemetry snapshot (what Op::server_stats answers): the
  /// ServerStats counters plus queue depth, in-flight count, uptime, and
  /// the whole obs registry — per-verb latency histograms included — as
  /// kronlab-stats-v1 JSON or Prometheus text.
  [[nodiscard]] std::string stats_text(StatsFormat format);

  [[nodiscard]] const kron::GroundTruthOracle& oracle() const {
    return oracle_;
  }

private:
  struct Connection;
  struct WorkItem {
    std::shared_ptr<Connection> conn;
    std::vector<word_t> payload;
  };

  void accept_loop();
  void reader_loop(const std::shared_ptr<Connection>& conn);
  void executor_loop(std::size_t id);
  void process(WorkItem& item);
  /// Append the results of `probes` (views into `payload`) to `out`, in
  /// order — the one chunk encoder of the serial and fan-out paths.
  void encode_probes(std::span<const word_t> payload,
                     std::span<const ProbeView> probes,
                     std::vector<word_t>& out);
  /// Append one probe's result words to `out`; returns its status.  On
  /// any status but ok the caller drops whatever was appended.
  [[nodiscard]] Status exec_probe(Op op, std::span<const word_t> args,
                                  std::vector<word_t>& out);
  void send(Connection& conn, const std::vector<word_t>& payload);
  /// Join reader threads of connections whose readers have exited.
  void reap_connections() REQUIRES(conn_mu_);

  [[nodiscard]] bool queue_push(WorkItem item);
  [[nodiscard]] std::optional<WorkItem> queue_pop();
  void queue_close();

  const kron::GroundTruthOracle oracle_;
  const ServerOptions opt_;
  StatsRecord stats_record_;
  /// Full degree histogram, precomputed (ascending degree) — sliced by
  /// Op::degree_hist without touching the oracle.
  std::vector<std::pair<count_t, index_t>> degree_hist_;

  Mutex queue_mu_;
  CondVar queue_cv_;
  std::deque<WorkItem> queue_ GUARDED_BY(queue_mu_);
  bool queue_closed_ GUARDED_BY(queue_mu_) = false;

  Mutex conn_mu_;
  std::vector<std::shared_ptr<Connection>> conns_ GUARDED_BY(conn_mu_);

  std::unique_ptr<Listener> listener_;
  std::thread accept_thread_;
  std::vector<std::thread> executors_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> in_flight_{0};

  // Stats counters (relaxed increments; stats() snapshots).
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_rejected_{0};
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> responses_{0};
  std::atomic<std::uint64_t> probes_{0};
  std::atomic<std::uint64_t> overloaded_{0};
  std::atomic<std::uint64_t> malformed_{0};
  std::atomic<std::uint64_t> shed_shutdown_{0};
  std::array<std::atomic<std::uint64_t>, 8> probes_by_op_{};

  // Registry metrics (pointers resolved once in the ctor; the registry
  // owns them for the process lifetime).  request_hist_ is the whole
  // decode+execute+respond frame; op_hist_[op] is one probe's execution,
  // indexed like probes_by_op_.
  obs::Histogram* request_hist_;
  std::array<obs::Histogram*, 8> op_hist_{};
  obs::Gauge* queue_depth_gauge_;
  std::uint64_t start_ns_; ///< construction time, for uptime_seconds
};

} // namespace kronlab::serve
