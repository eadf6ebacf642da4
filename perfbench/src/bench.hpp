// perfbench/src/bench.hpp
//
// Shared vocabulary of the pipeline benchmark: run options, the metric
// map every workload fills, the run context, and the timing helpers the
// four workloads share.
//
// A workload runs in one of three modes:
//   timed      setup (repeated, median reported), then back-to-back ops
//              for the run's seconds with tracing off → end-to-end metrics;
//   traced     the same ops, half the seconds untraced and half traced
//              (the difference is the tracing overhead), then the layer
//              probes → per-layer metrics and the "where the time goes"
//              table;
//   companion  one traced op (serve: half a second of frames) plus the
//              layer probes, so a traced run of any workload also
//              reports the layers only the others exercise.

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

enum class Mode { timed, traced, companion };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  Mode mode = Mode::timed;
  bool tiny = false;         ///< self-test instance sizes
  bool inject_fault = false; ///< corrupt what each op checks (self-test)
  std::string store_dir;     ///< generate: real-filesystem store, not RAM
};

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Run context: name → JSON-encoded value.
using Context = std::map<std::string, std::string>;

[[nodiscard]] std::string json_string(const std::string& s);
[[nodiscard]] std::string json_number(double v);

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics; ///< end-to-end (timed) or per-layer (traced, companion)
  Context context;
};

Result run_generate(const Options& opt);
Result run_count(const Options& opt);
Result run_serve(const Options& opt, bool zipf);

// ---------------------------------------------------------------------------
// Timing helpers.

[[nodiscard]] inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Keep a computed value alive, so the optimizer cannot drop the loop
/// that produced it.
void keep(std::int64_t v);

/// q-quantile (0..1) by linear interpolation; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// Back-to-back ops for a time budget.
struct OpLog {
  std::vector<double> seconds; ///< duration of each op
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Run `op` until `budget` seconds have passed (at least once).  `op`
/// returns whether its output checked out; a throw counts as a failure.
template <typename Op>
OpLog run_for(double budget, Op&& op) {
  OpLog log;
  const double start = now_seconds();
  do {
    const double t0 = now_seconds();
    bool ok = false;
    try {
      ok = op();
    } catch (const std::exception&) {
      ok = false;
    }
    log.seconds.push_back(now_seconds() - t0);
    ++log.attempted;
    if (!ok) ++log.failed;
  } while (now_seconds() - start < budget);
  return log;
}

/// Build the workload state `reps` times and return the last one; the
/// median build time goes to `setup_s`.  One build takes milliseconds,
/// so a single one would be mostly noise.  Each older state is destroyed
/// outside the timed window.
template <typename Build>
auto repeated_setup(int reps, double& setup_s, Build&& build) {
  std::vector<double> times;
  double t0 = now_seconds();
  auto state = build();
  times.push_back(now_seconds() - t0);
  for (int r = 1; r < reps; ++r) {
    t0 = now_seconds();
    auto next = build();
    times.push_back(now_seconds() - t0);
    state = std::move(next);
  }
  setup_s = median(times);
  return state;
}

/// Fold an op loop into the result's attempted / failed counts.
inline void count_ops(Result& r, const OpLog& log) {
  r.attempted += log.attempted;
  r.failed += log.failed;
}

/// The traced part of a serial workload.  Traced mode runs a warm-up op,
/// then half the seconds untraced and half traced, and reports the growth
/// of the median op time under tracing as `trace.overhead_pct`; companion
/// mode runs
/// one traced op.  Returns the root span of the traced ops and leaves
/// tracing on for the layer probes that follow.
template <typename Op>
trace::SpanId traced_ops(Result& r, const Options& opt, const char* root,
                         Op&& op) {
  if (opt.mode == Mode::companion) {
    trace::set_enabled(true);
    const trace::Span run(root);
    count_ops(r, run_for(0, op));
    return run.id();
  }
  count_ops(r, run_for(0, op));
  const OpLog off = run_for(opt.seconds / 2, op);
  trace::set_enabled(true);
  const trace::Span run(root);
  const OpLog on = run_for(opt.seconds / 2, op);
  count_ops(r, off);
  count_ops(r, on);
  const double t_off = median(off.seconds);
  const double t_on = median(on.seconds);
  r.metrics["trace.overhead_pct"] = {(t_on - t_off) / t_off * 100.0, "%"};
  return run.id();
}

/// The end-to-end metrics every workload reports in timed mode:
/// throughput (work per second), median op latency, setup time and the
/// process's peak RSS.
void add_end_to_end(Result& r, double throughput, double p50_ms,
                    double setup_s);

} // namespace perfbench
