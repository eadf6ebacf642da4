// perfbench/src/workload_serve.cpp
//
// serve_zipf / serve_uniform: a closed loop of 2 client connections
// (local_pair) against an in-process Server at default ServerOptions, on
// a ~1.2M-vertex product.  Each client sends its next frame only when the
// previous one has been answered.
//
//   serve_zipf     240-probe frames; vertex keys drawn Zipf(1) over a
//                  seeded permutation of the vertices, so the vertex LRU
//                  hits about half the time.  Probe execution dominates.
//   serve_uniform  16-probe frames, uniform vertex keys: the LRU almost
//                  never hits and a frame costs mostly the reader → queue
//                  → executor → socket handoff.
//
// Both mix three vertex probes to one edge probe on a real product edge.
// Checks per frame: the frame and every result are `ok`, and a seeded
// sample of the returned records equals, word for word, what an
// in-process GroundTruthOracle encodes for the same probe.

#include <algorithm>
#include <memory>
#include <numeric>
#include <thread>

#include "bench.hpp"
#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/kron/oracle.hpp"
#include "kronlab/serve/client.hpp"
#include "kronlab/serve/server.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace kronlab;

constexpr int kClients = 2;
constexpr std::size_t kPoolProbes = 1 << 16; ///< per client, cycled
constexpr int kWarmupFrames = 16;            ///< per client, in setup
/// serve_zipf frame size: just below the default 256-probe fan-out
/// threshold, so each frame runs on one executor (see README.md).
constexpr std::size_t kZipfBatch = 240;

using Frame = std::vector<serve::Probe>;
using Pool = std::vector<Frame>;

kron::BipartiteKronecker make_product(const Options& opt) {
  Rng rng(opt.seed);
  auto m = opt.tiny ? gen::random_nonbipartite_connected(10, 20, rng)
                    : gen::random_nonbipartite_connected(100, 300, rng);
  auto b = opt.tiny ? gen::preferential_bipartite(20, 20, 60, rng)
                    : gen::preferential_bipartite(6000, 6000, 30000, rng);
  return kron::BipartiteKronecker::raw(std::move(m), std::move(b));
}

/// A uniformly drawn stored entry (row, col) of `a`.
std::pair<index_t, index_t> random_entry(const graph::Adjacency& a,
                                         Rng& rng) {
  const auto e = static_cast<offset_t>(
      rng.next_below(static_cast<std::uint64_t>(a.nnz())));
  const auto& ptr = a.row_ptr();
  const auto row = std::upper_bound(ptr.begin(), ptr.end(), e) - ptr.begin() - 1;
  return {static_cast<index_t>(row),
          a.col_idx()[static_cast<std::size_t>(e)]};
}

/// Every client's probe pool: frames of `batch` probes, three vertex
/// probes to one edge probe on a real product edge.
std::vector<Pool> make_pools(const kron::BipartiteKronecker& kp,
                             const Options& opt, bool zipf,
                             std::size_t batch) {
  Rng rng(opt.seed * 0x9E3779B97F4A7C15ull + 17);
  const index_t n = kp.num_vertices();
  std::vector<index_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), index_t{0});
  std::vector<double> cdf; // Zipf(1) over ranks 1..n
  if (zipf) {
    for (std::size_t i = perm.size() - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.next_below(i + 1)]);
    }
    cdf.resize(perm.size());
    double h = 0;
    for (std::size_t r = 0; r < cdf.size(); ++r) {
      cdf[r] = h += 1.0 / static_cast<double>(r + 1);
    }
    for (auto& c : cdf) c /= h;
  }
  const auto vertex_key = [&] {
    if (!zipf) {
      return static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(n)));
    }
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), rng.next_double());
    return perm[std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                                      perm.size() - 1)];
  };
  const index_t nb = kp.right().nrows();
  const index_t ncb = kp.right().ncols();
  std::vector<Pool> pools(kClients);
  for (auto& pool : pools) {
    pool.resize(kPoolProbes / batch);
    for (auto& frame : pool) {
      frame.reserve(batch);
      for (std::size_t i = 0; i < batch; ++i) {
        if (i % 4 != 3) {
          frame.push_back(serve::Probe::vertex(vertex_key()));
          continue;
        }
        const auto [i_m, j_m] = random_entry(kp.left(), rng);
        const auto [k_b, l_b] = random_entry(kp.right(), rng);
        frame.push_back(serve::Probe::edge(i_m * nb + k_b, j_m * ncb + l_b));
      }
    }
  }
  return pools;
}

/// What the reference oracle encodes for `probe` (vertex or edge).
std::vector<serve::word_t> expected_words(const kron::GroundTruthOracle& ref,
                                          const serve::Probe& probe) {
  if (probe.op == serve::Op::vertex) {
    return serve::encode_record(ref.vertex(probe.args[0]));
  }
  return serve::encode_record(ref.edge(probe.args[0], probe.args[1]));
}

struct State {
  State(const Options& opt, const std::vector<Pool>& pools)
      : kp(make_product(opt)), server(kp, serve::ServerOptions{}) {
    for (int c = 0; c < kClients; ++c) {
      auto [client_end, server_end] = serve::local_pair();
      server.adopt(std::move(server_end));
      clients.push_back(std::make_unique<serve::Client>(std::move(client_end)));
    }
    for (int c = 0; c < kClients; ++c) {
      const Pool& pool = pools[static_cast<std::size_t>(c)];
      for (int f = 0; f < kWarmupFrames; ++f) {
        (void)clients[static_cast<std::size_t>(c)]->call(
            pool[static_cast<std::size_t>(f) % pool.size()]);
      }
    }
  }

  kron::BipartiteKronecker kp;
  serve::Server server;
  std::vector<std::unique_ptr<serve::Client>> clients;
};

struct ClientLog {
  std::vector<double> latency_ms;
  std::uint64_t frames = 0;
  std::uint64_t failed = 0;
};

/// One frame's checks: frame and results ok, sampled records exact.
bool check(const serve::Response& resp, const Frame& frame,
           const kron::GroundTruthOracle& ref, Rng& rng, bool inject_fault) {
  trace::Span span("kron.reference_check");
  if (resp.status != serve::Status::ok ||
      resp.results.size() != frame.size()) {
    return false;
  }
  for (const auto& result : resp.results) {
    if (result.status != serve::Status::ok) return false;
  }
  const std::size_t samples = std::max<std::size_t>(1, frame.size() / 128);
  for (std::size_t k = 0; k < samples; ++k) {
    const auto i = static_cast<std::size_t>(rng.next_below(frame.size()));
    auto want = expected_words(ref, frame[i]);
    if (inject_fault) want[0] ^= 1;
    if (resp.results[i].words != want) return false;
  }
  return true;
}

/// Closed loop of one client until `end`, cycling its pool from `next`
/// on.
void client_loop(serve::Client& client, const Pool& pool,
                 const kron::GroundTruthOracle& ref, const Options& opt,
                 double end, std::size_t& next, Rng& rng, ClientLog& log) {
  do {
    const Frame& frame = pool[next++ % pool.size()];
    Frame probes = frame;
    trace::Span op("op.frame");
    bool ok = false;
    const double t0 = now_seconds();
    try {
      serve::Response resp;
      {
        trace::Span call("serve.call");
        resp = client.call(std::move(probes));
      }
      log.latency_ms.push_back((now_seconds() - t0) * 1e3);
      op.set_request(resp.id);
      ok = check(resp, frame, ref, rng, opt.inject_fault);
    } catch (const std::exception&) {
      ok = false;
    }
    ++log.frames;
    if (!ok) ++log.failed;
  } while (now_seconds() < end);
}

/// Every client's closed loop, concurrently, for `budget` seconds.
struct LoadPhase {
  std::vector<double> latency_ms;
  std::uint64_t frames = 0, failed = 0;
  double p50_ms = 0;
  double probes_per_s = 0;
};

LoadPhase run_load(State& s, const std::vector<Pool>& pools,
                   const kron::GroundTruthOracle& ref, const Options& opt,
                   double budget, std::vector<std::size_t>& next,
                   std::vector<Rng>& rngs) {
  std::vector<ClientLog> logs(kClients);
  const trace::SpanId parent = trace::current();
  const double start = now_seconds();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      const trace::Span client_span("bench.client", parent);
      client_loop(*s.clients[c], pools[c], ref, opt, start + budget,
                  next[c], rngs[c], logs[c]);
    });
  }
  for (auto& t : threads) t.join();
  LoadPhase out;
  for (const auto& log : logs) {
    out.latency_ms.insert(out.latency_ms.end(), log.latency_ms.begin(),
                          log.latency_ms.end());
    out.frames += log.frames;
    out.failed += log.failed;
  }
  // Little's law for a closed loop: each client always has one frame in
  // flight, so probes/s = clients × probes per frame / frame time.  Taken
  // at the median frame time, a stall of the shared machine, or of a
  // client thread between its frames, stays out of the figure.
  const auto batch = static_cast<double>(pools[0].front().size());
  out.p50_ms = median(out.latency_ms);
  out.probes_per_s = kClients * batch / (out.p50_ms * 1e-3);
  return out;
}

/// Layer probes on client 0's pool: the oracle called directly, and the
/// request / response codecs.  Returns the probes root span.
trace::SpanId layer_probes(const kron::GroundTruthOracle& ref,
                           const Pool& pool, double& vertex_ns,
                           double& edge_ns) {
  std::vector<serve::Request> requests;
  std::vector<std::vector<serve::word_t>> responses;
  std::uint64_t id = 1;
  for (const auto& frame : pool) {
    requests.push_back({id, frame});
    serve::Response resp{id++, serve::Status::ok, {}};
    for (const auto& probe : frame) {
      resp.results.push_back({probe.op, serve::Status::ok,
                              expected_words(ref, probe)});
    }
    responses.push_back(serve::encode_response(resp));
  }
  std::vector<index_t> vertices;
  std::vector<std::pair<index_t, index_t>> edges;
  for (const auto& frame : pool) {
    for (const auto& probe : frame) {
      if (probe.op == serve::Op::vertex) {
        vertices.push_back(probe.args[0]);
      } else {
        edges.emplace_back(probe.args[0], probe.args[1]);
      }
    }
  }

  trace::Span root("probes.serve");
  count_t sink = 0;
  double t0 = now_seconds();
  {
    trace::Span span("kron.oracle_vertex");
    for (const index_t p : vertices) sink += ref.vertex(p).squares;
  }
  vertex_ns = (now_seconds() - t0) * 1e9 / static_cast<double>(vertices.size());
  t0 = now_seconds();
  {
    trace::Span span("kron.oracle_try_edge");
    for (const auto& [p, q] : edges) sink += ref.try_edge(p, q)->squares;
  }
  edge_ns = (now_seconds() - t0) * 1e9 / static_cast<double>(edges.size());
  {
    trace::Span span("serve.encode_request");
    for (const auto& req : requests) {
      sink += static_cast<count_t>(serve::encode_request(req).size());
    }
  }
  {
    trace::Span span("serve.decode_response");
    for (const auto& words : responses) {
      sink += static_cast<count_t>(serve::decode_response(words).results.size());
    }
  }
  keep(sink);
  return root.id();
}

} // namespace

Result run_serve(const Options& opt, bool zipf) {
  const std::size_t batch = zipf ? kZipfBatch : 16;
  const char* name = zipf ? "serve_zipf" : "serve_uniform";
  Result r;
  const auto product = make_product(opt);
  const auto pools = make_pools(product, opt, zipf, batch);
  const kron::GroundTruthOracle ref(product);

  double setup_s = 0;
  const int reps = opt.mode == Mode::timed ? 9 : 3;
  auto state = repeated_setup(
      reps, setup_s, [&] { return std::make_unique<State>(opt, pools); });
  State& s = *state;
  const serve::ServerOptions defaults;
  r.context["instance"] = json_string(
      opt.tiny ? "rnonbip(10,20) (x) prefbip(20,20,60)"
               : "rnonbip(100,300) (x) prefbip(6000,6000,30000)");
  r.context["vertices"] = json_number(static_cast<double>(product.num_vertices()));
  r.context["edges"] = json_number(static_cast<double>(product.num_edges()));
  r.context["clients"] = json_number(kClients);
  r.context["executors"] = json_number(static_cast<double>(defaults.executors));
  r.context["cache_capacity"] =
      json_number(static_cast<double>(defaults.cache_capacity));
  r.context["probes_per_frame"] = json_number(static_cast<double>(batch));
  r.context["keys"] = json_string(zipf ? "zipf(1)" : "uniform");

  // Each client cycles its pool past the warm-up frames; the sampling
  // stream that picks which records to check is seeded per client.
  std::vector<std::size_t> next(kClients, kWarmupFrames);
  std::vector<Rng> rngs;
  for (int c = 0; c < kClients; ++c) rngs.emplace_back(opt.seed + 101 + c);
  const auto before = s.server.stats();
  const auto load = [&](double budget) {
    LoadPhase phase = run_load(s, pools, ref, opt, budget, next, rngs);
    r.attempted += phase.frames;
    r.failed += phase.failed;
    return phase;
  };

  if (opt.mode == Mode::timed) {
    const LoadPhase phase = load(opt.seconds);
    add_end_to_end(r, phase.probes_per_s, phase.p50_ms, setup_s);
    return r;
  }

  LoadPhase measured; // untraced in traced mode, traced in companion mode
  trace::SpanId root = 0;
  if (opt.mode == Mode::traced) {
    measured = load(opt.seconds / 2);
    trace::set_enabled(true);
    const trace::Span run(zipf ? "run.serve_zipf" : "run.serve_uniform");
    root = run.id();
    const LoadPhase traced = load(opt.seconds / 2);
    r.metrics["trace.overhead_pct"] = {
        (traced.p50_ms - measured.p50_ms) / measured.p50_ms * 100.0, "%"};
  } else {
    trace::set_enabled(true);
    const trace::Span run(zipf ? "run.serve_zipf" : "run.serve_uniform");
    root = run.id();
    measured = load(std::min(opt.seconds, 0.5));
  }
  const auto after = s.server.stats();
  double vertex_ns = 0, edge_ns = 0;
  const trace::SpanId probes_root =
      layer_probes(ref, pools[0], vertex_ns, edge_ns);
  trace::set_enabled(false);

  const auto spans = trace::collect();
  trace::print_table(spans, root, std::string(name) + ", traced frames");
  trace::print_table(spans, probes_root, std::string(name) + ", layer probes");
  const auto probes = trace::summarize(spans, probes_root);
  const double frames = static_cast<double>(pools[0].size());

  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses =
      static_cast<double>(after.cache_misses - before.cache_misses);
  const double oracle_ns_per_probe = (3 * vertex_ns + edge_ns) / 4;
  auto& m = r.metrics;
  m["kron.oracle_vertex_ns"] = {vertex_ns, "ns"};
  m["kron.oracle_try_edge_ns"] = {edge_ns, "ns"};
  m["serve.encode_us_per_frame"] = {
      trace::mean_ms(probes, "serve.encode_request") * 1e3 / frames, "us"};
  m["serve.decode_us_per_frame"] = {
      trace::mean_ms(probes, "serve.decode_response") * 1e3 / frames, "us"};
  m["serve.overhead_ns_per_probe"] = {
      measured.p50_ms * 1e6 / static_cast<double>(batch) -
          oracle_ns_per_probe,
      "ns"};
  m["serve.cache_hit_ratio"] = {
      hits + misses > 0 ? hits / (hits + misses) : 0, "ratio"};
  m["serve.overloaded"] = {
      static_cast<double>(after.overloaded - before.overloaded), "count"};
  m["serve.latency_p99_ms"] = {quantile(measured.latency_ms, 0.99), "ms"};
  return r;
}

} // namespace perfbench
