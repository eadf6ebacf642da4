// perfbench — the kronlab pipeline benchmark (see ../README.md).
//
//   perfbench --workload generate|count|serve_zipf|serve_uniform
//             --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--tiny] [--inject-fault] [--store-dir DIR]
//
// --trace 0 measures the workload with tracing off and prints its
// end-to-end metrics; --trace 1 prints the per-layer metrics and the
// "where the time goes" tables instead, running the workload traced plus
// one traced op of each other workload so every layer is covered.  The
// last line of stdout is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the line before it the run context.  --tiny shrinks every instance
// (self-test); --inject-fault corrupts what each op checks, so every op
// must come out failed; --store-dir puts the generate store on the real
// filesystem under DIR instead of in memory.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <thread>

#include "bench.hpp"
#include "kronlab/parallel/thread_pool.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

volatile std::int64_t g_kept = 0;

void keep(std::int64_t v) { g_kept = v; }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

void add_end_to_end(Result& r, double throughput, double p50_ms,
                    double setup_s) {
  r.metrics["throughput"] = {throughput, "1/s"};
  r.metrics["latency_p50_ms"] = {p50_ms, "ms"};
  r.metrics["setup_s"] = {setup_s, "s"};
  r.metrics["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
}

namespace {

const char* const kWorkloads[] = {"generate", "count", "serve_zipf",
                                  "serve_uniform"};

const char* const kEndToEnd[] = {"throughput", "latency_p50_ms", "setup_s",
                                 "peak_rss_mb"};

const char* const kPerLayer[] = {
    "kron.oracle_build_ms",      "kron.stream_ns_per_edge",
    "io.validator_ns_per_edge",  "io.generate_ns_per_edge",
    "io.verify_ns_per_edge",     "io.bytes_per_edge",
    "io.syncs",                  "io.publishes",
    "io.sync_ms",                "kron.materialize_ms",
    "kron.ground_truth_ms",      "graph.degree_order_ms",
    "graph.vertex_butterflies_ms", "graph.edge_butterflies_ms",
    "graph.global_butterflies_ms", "dist.generate_shard_ms",
    "dist.count_ms",             "dist.ground_truth_ms",
    "dist.rank_imbalance",       "dist.backoff_s",
    "dist.retries",              "dist.frames_per_batch",
    "kron.oracle_vertex_ns",     "kron.oracle_try_edge_ns",
    "serve.encode_us_per_frame", "serve.decode_us_per_frame",
    "serve.overhead_ns_per_probe", "serve.cache_hit_ratio",
    "serve.overloaded",          "serve.latency_p99_ms",
    "trace.overhead_pct",
};

Result run(const Options& opt) {
  if (opt.workload == "generate") return run_generate(opt);
  if (opt.workload == "count") return run_count(opt);
  return run_serve(opt, opt.workload == "serve_zipf");
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "generate|count|serve_zipf|serve_uniform --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--tiny] "
               "[--inject-fault] [--store-dir DIR]\n",
               msg);
  return 2;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool traced = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--inject-fault") {
      opt.inject_fault = true;
    } else if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      opt.workload = argv[++i];
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      traced = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-out") {
      trace_out = argv[++i];
    } else if (arg == "--store-dir") {
      opt.store_dir = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), opt.workload) ==
      std::end(kWorkloads)) {
    return usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");
  opt.mode = traced ? Mode::traced : Mode::timed;

  Result r;
  try {
    r = run(opt);
    if (traced) {
      // One traced op of every other workload fills in the layers this
      // one does not exercise; the workload's own figures take priority.
      for (const char* other : kWorkloads) {
        if (opt.workload == other) continue;
        Options companion = opt;
        companion.workload = other;
        companion.mode = Mode::companion;
        const Result c = run(companion);
        r.attempted += c.attempted;
        r.failed += c.failed;
        for (const auto& [name, metric] : c.metrics) {
          r.metrics.emplace(name, metric);
        }
      }
      if (!trace_out.empty() &&
          !trace::write_json(trace::collect(), trace_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     trace_out.c_str());
        return 1;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  r.context["workload"] = json_string(opt.workload);
  r.context["seed"] = json_number(static_cast<double>(opt.seed));
  r.context["seconds"] = json_number(opt.seconds);
  r.context["trace"] = traced ? "true" : "false";
  r.context["nproc"] =
      json_number(static_cast<double>(std::thread::hardware_concurrency()));
  r.context["pool_size"] =
      json_number(static_cast<double>(kronlab::global_pool().size()));
  r.context["build_type"] = json_string(PERFBENCH_BUILD_TYPE);
  std::string context = "{\"context\": {";
  for (const auto& [key, value] : r.context) {
    context += (context.back() == '{' ? "" : ", ") + json_string(key) + ": " +
               value;
  }
  std::printf("\n%s}}\n", context.c_str());

  std::string metrics;
  const auto emit = [&](const char* name) {
    const auto it = r.metrics.find(name);
    if (it == r.metrics.end()) return false;
    metrics += (metrics.empty() ? "" : ", ") + json_string(name) +
               ": {\"value\": " + json_number(it->second.value) +
               ", \"unit\": " + json_string(it->second.unit) + "}";
    return true;
  };
  using Names = std::span<const char* const>;
  for (const char* name : traced ? Names(kPerLayer) : Names(kEndToEnd)) {
    if (!emit(name)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", name);
      return 1;
    }
  }
  const bool correct = r.attempted > 0 && r.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  return 0;
}
