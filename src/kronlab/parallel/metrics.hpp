// kronlab/parallel/metrics.hpp
//
// Opt-in per-kernel observability for the parallel runtime.
//
// A KernelScope names the kernel executing on the calling thread; the
// dynamic dispatchers in parallel_for.hpp report per-worker busy time,
// chunk counts, and item counts into the innermost active scope.  When the
// scope is destroyed it folds its measurements — wall time, total and
// slowest-worker busy time, chunk/item counts, and the derived
// load-imbalance ratio — into a process-wide registry that can be dumped
// as text or JSON from the benchmark harnesses.
//
// Everything is disabled (and near-zero cost: one thread_local read per
// parallel region) until metrics::set_enabled(true) is called or the
// process starts with KRONLAB_METRICS=1 in the environment.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "kronlab/common/sync.hpp"
#include "kronlab/common/timer.hpp"

namespace kronlab::metrics {

/// Aggregated measurements for one named kernel.
struct KernelStats {
  std::uint64_t calls = 0;   ///< completed KernelScopes with this name
  double wall_seconds = 0.0; ///< scope lifetime, summed over calls
  double busy_seconds = 0.0; ///< Σ over workers of in-region busy time
  double max_worker_seconds = 0.0; ///< Σ over calls of the slowest worker
  std::uint64_t chunks = 0;  ///< dynamically dispatched chunks
  std::uint64_t items = 0;   ///< loop iterations covered by those chunks
  std::size_t max_workers = 0; ///< widest parallel region observed

  /// Load-imbalance ratio: slowest worker over mean worker, >= 1.
  /// 1.0 is perfect balance; max_workers means one worker did everything.
  [[nodiscard]] double imbalance() const;
};

/// True when recording is on (set_enabled(true) or KRONLAB_METRICS=1).
[[nodiscard]] bool enabled();

/// Turn recording on or off process-wide.
void set_enabled(bool on);

/// RAII guard naming the kernel running on this thread.  Scopes nest;
/// dispatch measurements are attributed to the innermost scope.  When
/// metrics are disabled at construction time the scope is inert.
class KernelScope {
public:
  explicit KernelScope(std::string name);
  ~KernelScope();

  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;

  /// Innermost active scope on this thread (nullptr when none, or when
  /// metrics are disabled).  Dispatchers capture this on the calling
  /// thread before forking so workers report to the right scope.
  [[nodiscard]] static KernelScope* current();

  /// Report one worker's contribution to a parallel region run under this
  /// scope.  Called at most once per worker per region; thread-safe.
  void note_worker(std::size_t worker, double busy_seconds,
                   std::uint64_t chunks, std::uint64_t items);

  /// Arena-interned kernel name when tracing was enabled at construction
  /// (nullptr otherwise).  The dynamic dispatchers label per-worker trace
  /// spans with it.
  [[nodiscard]] const char* trace_name() const { return trace_name_; }

private:
  std::string name_;
  std::uint64_t start_ns_ = 0; ///< timer::now_ns() at construction
  const char* trace_name_ = nullptr;
  KernelScope* parent_ = nullptr;
  bool active_ = false;
  Mutex mu_; ///< guards the per-region worker measurements below
  std::vector<double> worker_busy_ GUARDED_BY(mu_); ///< indexed by worker id
  std::uint64_t chunks_ GUARDED_BY(mu_) = 0;
  std::uint64_t items_ GUARDED_BY(mu_) = 0;
};

/// RAII recording window: enables recording and clears the registry on
/// entry, restores the previous enabled state on exit (recorded stats are
/// left in place for the caller to snapshot).  The bench harness opens one
/// of these around every run so each BENCH_*.json carries exactly that
/// run's per-kernel dispatch measurements.
class ScopedRecording {
public:
  ScopedRecording();
  ~ScopedRecording();

  ScopedRecording(const ScopedRecording&) = delete;
  ScopedRecording& operator=(const ScopedRecording&) = delete;

private:
  bool prev_;
};

/// Snapshot of the registry (kernel name → aggregated stats).
[[nodiscard]] std::map<std::string, KernelStats> snapshot();

/// Drop all recorded stats (enabled state is unchanged).
void reset();

/// Fold `other` into `into` (sums everything, max of max_workers) — used
/// by the bench harness to combine per-rep registry snapshots.
void merge(KernelStats& into, const KernelStats& other);

/// Human-readable table, one kernel per line, sorted by wall time.
[[nodiscard]] std::string report_text();

/// Same, for an explicit snapshot instead of the live registry.
[[nodiscard]] std::string report_text(
    const std::map<std::string, KernelStats>& kernels);

/// Machine-readable dump: {"kernels": [{"name": ..., ...}, ...]}.
[[nodiscard]] std::string report_json();

/// Same, for an explicit snapshot instead of the live registry.
[[nodiscard]] std::string report_json(
    const std::map<std::string, KernelStats>& kernels);

} // namespace kronlab::metrics
