// bench_served — sustained throughput and tail latency of the query
// daemon (EXPERIMENTS.md X15).
//
// Runs an in-process Server over local_pair() transports and hammers it
// from N client threads, each issuing batched mixed probes (vertex /
// edge / sample / stats in a fixed rotation) for a fixed frame count.
// Per-frame latencies are collected client-side; the harness reports
// sustained queries/sec plus p50/p99 frame latency in the
// kronlab-bench-v1 JSON schema (counters qps, p50_ms, p99_ms).
//
// The telemetry cost (EXPERIMENTS.md X18, budgeted at <= 2%) is measured
// with interleaved paired rounds: several alternating off/on sub-runs,
// comparing the best round of each arm.  A single off-then-on pair is
// useless on a shared machine — a control with telemetry disabled in
// BOTH arms still reports "overhead" anywhere from -29% to +6% from
// scheduling drift alone; best-of-k per arm cancels that drift.
//
// The serve path itself is traced (one "request" span per frame), so a
// --trace run doubles as the CI check that the daemon's spans appear in
// kronlab_trace summary.

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "harness/harness.hpp"
#include "kronlab/kronlab.hpp"
#include "kronlab/obs/stats.hpp"

using namespace kronlab;

namespace {

struct LoadResult {
  double seconds = 0;
  std::uint64_t frames = 0;
  std::uint64_t probes = 0;
  std::vector<double> latencies_ms;
};

/// One client thread's closed loop: `frames` frames of `batch` mixed
/// probes each, recording per-frame round-trip latency.
LoadResult client_loop(serve::Client& client, const serve::StatsRecord& dims,
                       int frames, int batch, std::uint64_t seed) {
  LoadResult out;
  out.latencies_ms.reserve(static_cast<std::size_t>(frames));
  Rng rng(seed);
  const auto pick_vertex = [&] {
    return static_cast<index_t>(
        rng.next_below(static_cast<std::uint64_t>(dims.num_vertices)));
  };
  Timer wall;
  for (int f = 0; f < frames; ++f) {
    std::vector<serve::Probe> probes;
    probes.reserve(static_cast<std::size_t>(batch));
    for (int i = 0; i < batch; ++i) {
      switch (i % 4) {
      case 0:
        probes.push_back(serve::Probe::vertex(pick_vertex()));
        break;
      case 1:
        probes.push_back(serve::Probe::edge(pick_vertex(), pick_vertex()));
        break;
      case 2:
        probes.push_back(serve::Probe::sample_edge(rng.next()));
        break;
      default:
        probes.push_back(serve::Probe::stats());
        break;
      }
    }
    Timer t;
    const auto resp = client.call(std::move(probes));
    out.latencies_ms.push_back(t.seconds() * 1e3);
    KRONLAB_REQUIRE(resp.status == serve::Status::ok,
                    "bench frame not answered ok");
    ++out.frames;
    out.probes += static_cast<std::uint64_t>(batch);
  }
  out.seconds = wall.seconds();
  return out;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

} // namespace

int main(int argc, char** argv) {
  bench::Harness h("served", bench::parse_args(argc, argv));

  // A mid-size product: big enough that vertex records exercise real
  // factor walks, small enough to construct instantly.
  Rng rng_m(7), rng_b(11);
  const auto m = gen::random_bipartite(40, 60, 360, rng_m);
  const auto b = gen::preferential_bipartite(50, 70, 560, rng_b);
  const auto kp = kron::BipartiteKronecker::raw(m, b);
  h.label("instance", "rbip:40,60,360,7 (x) prefbip:50,70,560,11");

  const int clients = h.quick() ? 2 : 4;
  const int frames = h.quick() ? 40 : 400;
  const int batch = h.quick() ? 8 : 32;
  h.counter("clients", clients);
  h.counter("frames_per_client", frames);
  h.counter("probes_per_frame", batch);

  serve::ServerOptions opt;
  opt.executors = static_cast<std::size_t>(clients);
  serve::Server server(kp, opt);

  std::vector<std::unique_ptr<serve::Client>> pool;
  for (int c = 0; c < clients; ++c) {
    auto [client_end, server_end] = serve::local_pair();
    server.adopt(std::move(server_end));
    pool.push_back(
        std::make_unique<serve::Client>(std::move(client_end)));
  }
  const serve::StatsRecord dims{kp.num_vertices(), kp.num_edges(), 0};

  std::vector<LoadResult> results(static_cast<std::size_t>(clients));
  const auto run_load = [&](int run_frames, std::uint64_t seed_base) {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        results[static_cast<std::size_t>(c)] =
            client_loop(*pool[static_cast<std::size_t>(c)], dims,
                        run_frames, batch,
                        seed_base + std::uint64_t(c));
      });
    }
    for (auto& t : threads) t.join();
  };
  const auto qps_of = [&] {
    double seconds = 0;
    std::uint64_t probes = 0;
    for (const auto& r : results) {
      seconds = std::max(seconds, r.seconds);
      probes += r.probes;
    }
    return seconds > 0 ? static_cast<double>(probes) / seconds : 0.0;
  };

  // Warm caches and code paths so the off/on comparison below is not
  // just measuring first-touch effects.
  run_load(std::max(1, frames / 8), /*seed_base=*/0xC0FFEEull);

  // Paired rounds, alternating telemetry off (every record() is one
  // relaxed load and a branch) and on, same per-round frame budget and
  // seeds.  Best-of per arm: environmental slowdowns only ever subtract
  // throughput, so the max over rounds is each arm's least-disturbed
  // measurement.
  const int pair_rounds = h.quick() ? 3 : 5;
  const int pair_frames = std::max(64, frames / 4);
  double qps_off = 0, qps_on = 0;
  h.time_section(
      "serve/load_stats_off",
      [&] {
        for (int round = 0; round < pair_rounds; ++round) {
          const auto seed = 0xD15ABull + std::uint64_t(round) * 0x1000;
          obs::set_stats_enabled(false);
          run_load(pair_frames, seed);
          qps_off = std::max(qps_off, qps_of());
          obs::set_stats_enabled(true);
          run_load(pair_frames, seed + 0x800);
          qps_on = std::max(qps_on, qps_of());
        }
      },
      /*default_reps=*/1);

  h.time_section("serve/load",
                 [&] { run_load(frames, /*seed_base=*/0x5EEDull); },
                 /*default_reps=*/1);

  double seconds = 0;
  std::uint64_t total_frames = 0, total_probes = 0;
  std::vector<double> latencies;
  for (const auto& r : results) {
    seconds = std::max(seconds, r.seconds);
    total_frames += r.frames;
    total_probes += r.probes;
    latencies.insert(latencies.end(), r.latencies_ms.begin(),
                     r.latencies_ms.end());
  }
  const double qps =
      seconds > 0 ? static_cast<double>(total_probes) / seconds : 0;
  const double p50 = percentile(latencies, 0.50);
  const double p99 = percentile(latencies, 0.99);
  const double overhead_pct =
      qps_off > 0 ? (qps_off - qps_on) / qps_off * 100.0 : 0.0;
  h.counter("total_probes", static_cast<double>(total_probes));
  h.counter("total_frames", static_cast<double>(total_frames));
  h.counter("qps", qps);
  h.counter("p50_ms", p50);
  h.counter("p99_ms", p99);
  h.counter("qps_stats_off", qps_off);
  h.counter("stats_overhead_pct", overhead_pct);

  server.stop();
  h.counter("in_flight_after_stop", static_cast<double>(server.in_flight()));

  std::printf("bench_served: %d clients x %d frames x %d probes\n", clients,
              frames, batch);
  std::printf("  sustained    : %.0f probes/s (%.0f frames/s)\n", qps,
              seconds > 0 ? static_cast<double>(total_frames) / seconds : 0);
  std::printf("  frame latency: p50 %.3f ms, p99 %.3f ms\n", p50, p99);
  std::printf("  stats overhead: %.2f%% (best of %d paired rounds: "
              "%.0f off vs %.0f on probes/s)\n",
              overhead_pct, pair_rounds, qps_off, qps_on);
  return 0;
}
