// bench/harness/harness.hpp
//
// Shared measurement harness for every bench_* target.
//
// Each bench constructs one Harness, times its phases through it, records
// scalar counters and text labels, and on destruction the harness writes a
// schema-stable machine-readable dump `BENCH_<name>.json` (schema
// "kronlab-bench-v1", validated in CI by scripts/check_bench_json.py).
// The JSON carries:
//
//   * per-section timing statistics (repetitions, mean/min/max/stddev),
//   * scalar counters and string labels the bench chose to record, plus
//     the obs/stats registry folded in at write time (every histogram,
//     the kernel/<name> ones included, as <name>.count/.p50_ms/.p99_ms),
//   * peak RSS and total wall time.
//
// Command line (parse_args): every bench accepts
//   --quick        sub-second smoke sizes (CI's bench-smoke job)
//   --reps N       override per-section repetition counts
//   --json PATH    where to write the dump (default BENCH_<name>.json in
//                  the working directory)
//   --no-json      skip the dump (interactive runs that only want stdout)
//   --trace PATH   enable obs/trace recording and export the timeline on
//                  exit.  PATH ending in ".json" writes Chrome trace JSON
//                  only; anything else is treated as a directory that
//                  receives trace.json (and, for distributed benches,
//                  per-rank rank_<r>.json files).

#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "kronlab/common/timer.hpp"

namespace kronlab::bench {

struct Options {
  bool quick = false;
  int reps = 0; ///< 0 = keep each section's default
  std::string json_path; ///< empty = BENCH_<name>.json
  bool no_json = false;
  std::string trace_path; ///< empty = tracing off (see --trace above)
};

/// Parse the common bench flags; exits with a usage message on unknown
/// arguments (typos in CI must fail loudly, not silently run the default).
Options parse_args(int argc, char** argv);

/// Timing statistics over `reps` repetitions of one section.
struct TimingStats {
  int reps = 0;
  double mean_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
  double stddev_seconds = 0.0;
};

class Harness {
public:
  /// `name` is the suffix of the emitting target: bench_fig5 → "fig5".
  Harness(std::string name, Options opt);

  /// Writes the JSON dump unless --no-json or write() already ran.
  ~Harness();

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  [[nodiscard]] bool quick() const { return opt_.quick; }
  [[nodiscard]] const Options& options() const { return opt_; }

  /// Repetitions a section should run: --reps if given, else the
  /// section's default (quick mode clamps to 1 so smoke runs stay fast).
  [[nodiscard]] int reps_for(int default_reps) const;

  /// Run `fn` reps_for(default_reps) times, record and return the stats.
  template <typename F>
  TimingStats time_section(const std::string& section, F&& fn,
                           int default_reps = 3) {
    const int reps = reps_for(default_reps);
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r) {
      Timer t;
      fn();
      samples.push_back(t.seconds());
    }
    return record_samples(section, samples);
  }

  /// Record one externally measured duration under `section`.
  TimingStats time_value(const std::string& section, double seconds);

  /// Record a scalar result (count, speedup, error, …).
  void counter(const std::string& name, double value);

  /// Record a free-text result (instance name, mode, …).
  void label(const std::string& name, std::string value);

  /// Write BENCH_<name>.json now (idempotent; the destructor then skips).
  /// When --trace was given, also exports the timeline (see the --trace
  /// doc).
  void write();

  /// Directory receiving trace files, or "" when --trace is off or names
  /// a single .json file.  Distributed benches drop per-rank binaries
  /// here before write() runs.
  [[nodiscard]] const std::string& trace_dir() const { return trace_dir_; }

private:
  TimingStats record_samples(const std::string& section,
                             const std::vector<double>& samples);
  /// Fold the obs/stats registry (reset at harness construction) into
  /// the exported counters: non-zero counters under their registry name,
  /// histograms as <name>.count/.p50_ms/.p99_ms.  With --trace, the same
  /// values ride along as cat "stats" counter events so kronlab_trace
  /// summary can cross-reference them.
  void fold_obs_stats();
  void export_trace();
  [[nodiscard]] std::string to_json() const;

  std::string name_;
  Options opt_;
  Timer wall_;
  std::vector<std::pair<std::string, TimingStats>> timings_;
  std::map<std::string, double> counters_;
  std::map<std::string, std::string> labels_;
  std::string trace_dir_;
  bool written_ = false;
};

/// Peak resident set size of this process so far, in bytes (getrusage).
[[nodiscard]] double peak_rss_bytes();

} // namespace kronlab::bench
