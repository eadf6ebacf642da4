// kronlab/obs/stats.hpp
//
// Live telemetry: a process-wide registry of named counters, gauges, and
// log-bucketed latency histograms.  Where obs/trace answers "what
// happened, in order" after the fact, the stats registry answers "what is
// happening right now" — it is what the KRNLSRV1 SERVER_STATS admin
// request snapshots on a running daemon, what the bench harness folds
// into kronlab-bench-v1 counters (p50/p99 per instrumented phase), and
// what the stall watchdog samples.  Instrumented kernels (KRONLAB_KERNEL)
// record into "kernel/<name>" histograms here too, under the same switch.
//
// Hot-path contract (the trace idiom, PR 4):
//
//  * Disabled (`KRONLAB_STATS=0`): every record call is one relaxed
//    atomic load and a branch.  Nothing else — no clock read, no
//    allocation, no shared-line write.
//  * Enabled (the default): counters and gauges are single relaxed
//    atomic RMWs on dedicated cache lines.  Histogram recording writes
//    only the calling thread's shard — one relaxed load+store on a
//    bucket the thread owns — so concurrent recorders never contend.
//    Shards are merged under the registry mutex at snapshot time.  A
//    thread that exits hands its shards, counts intact, to the next new
//    recording thread, so shard memory follows the live thread count.
//
// Histogram buckets are logarithmic with 5 sub-bucket bits (HdrHistogram
// style): values below 32 are exact, larger values land in one of 32
// sub-buckets per power of two, bounding the relative quantile error at
// ~3%.  The per-histogram true maximum is tracked exactly, so max (and
// any quantile that resolves to the last occupied bucket) never
// over-reports by more than one sub-bucket width.
//
// Snapshots are *live*: recorders keep running while snapshot() reads
// the shards.  Relaxed reads may observe a bucket increment before the
// matching count increment (or vice versa), so a live snapshot can be
// off by the handful of events in flight — fine for telemetry.  Exact
// snapshots (tests, bench harness) are taken at quiescent points.
//
// The registry itself is append-only and deliberately leaked (again the
// trace idiom): metric objects live for the process lifetime, so a
// pointer obtained once from counter()/gauge()/histogram() stays valid
// forever and can be cached in a member or a static.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "kronlab/common/timer.hpp"

namespace kronlab::obs {

/// True when the registry records (default on; KRONLAB_STATS=0 disables).
[[nodiscard]] bool stats_enabled();

/// Turn recording on or off process-wide.
void set_stats_enabled(bool on);

/// Monotonically increasing event count.  add() is a relaxed fetch_add.
class Counter {
public:
  void add(std::uint64_t delta = 1) {
    if (stats_enabled()) value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

private:
  alignas(64) std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, busy workers).  set() is a relaxed
/// store; add() is a relaxed fetch_add of a signed delta.
class Gauge {
public:
  void set(std::int64_t v) {
    if (stats_enabled()) value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) {
    if (stats_enabled()) value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

private:
  alignas(64) std::atomic<std::int64_t> value_{0};
};

/// Log-bucketed histogram of non-negative values (latencies in ns by
/// convention).  record() touches only the calling thread's shard.
class Histogram {
public:
  /// 5 sub-bucket bits: 32 exact buckets, then 32 sub-buckets per
  /// power of two up to 2^63 — 1920 buckets, ~3% relative error.
  static constexpr int kSubBits = 5;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1)
                                          << kSubBits; // 1920

  void record(std::uint64_t value);

  /// Bucket index for a value (exposed for the golden-quantile tests).
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t value);
  /// Midpoint representative of a bucket (what quantiles report).
  [[nodiscard]] static std::uint64_t bucket_mid(std::size_t bucket);

  /// One recording thread's private slice, owned by the registry.
  /// Atomics because a live snapshot reads them concurrently;
  /// single-writer, so plain load+store (no RMW) keeps the hot path
  /// lock-prefix-free.
  struct Shard {
    Shard() : buckets(kBuckets) {}
    std::vector<std::atomic<std::uint64_t>> buckets;
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
    /// Decimation counter for SampledLatencyScope.  Plain (not atomic):
    /// only the owning thread touches it, and snapshots never read it.
    std::uint32_t tick = 0;
  };

  /// Advance this thread's decimation counter and report whether the
  /// current event is one of the 1-in-`period` that should be timed.
  /// The counter starts at 0, so the FIRST event on each thread is
  /// always sampled — a histogram that saw any traffic is never empty.
  /// Per-histogram state (not a global tick) so a fixed rotation of
  /// operations cannot alias with the sampling period.
  [[nodiscard]] bool tick_sample(std::uint32_t period) {
    return shard().tick++ % period == 0;
  }

private:
  // Only the registry may construct: a free-standing Histogram would
  // alias another histogram's slot in the per-thread shard map.
  friend Histogram& histogram(std::string_view name);
  Histogram() = default;

  Shard& shard();

  std::size_t id_ = 0; ///< dense index into the thread-local shard map
};

/// RAII latency sample: records now()-construction into `h` in ns.
/// Inert (no clock read) when stats were disabled at construction.
class LatencyScope {
public:
  explicit LatencyScope(Histogram& h)
      : h_(&h), begin_ns_(stats_enabled() ? timer::now_ns() : 0) {}
  /// Nullable form: pass nullptr for an inert scope (e.g. an unknown
  /// opcode with no per-verb histogram).
  explicit LatencyScope(Histogram* h)
      : h_(h), begin_ns_(h != nullptr && stats_enabled() ? timer::now_ns()
                                                         : 0) {}
  ~LatencyScope() {
    if (begin_ns_ != 0) h_->record(timer::now_ns() - begin_ns_);
  }
  LatencyScope(const LatencyScope&) = delete;
  LatencyScope& operator=(const LatencyScope&) = delete;

private:
  Histogram* h_;
  std::uint64_t begin_ns_;
};

/// RAII kernel timing, the one per-kernel instrument; use it through
/// KRONLAB_KERNEL.  Records the scope's wall time (ns) into its
/// "kernel/<name>" histogram.  When tracing is on it also emits a
/// "kernel" span and publishes `name` as this thread's innermost kernel,
/// which the dynamic dispatchers use to label their per-worker
/// "parallel" spans.  Inert (no clock read) with stats and tracing off.
class KernelScope {
public:
  /// `name` must outlive the trace (a string literal).
  KernelScope(Histogram& h, const char* name);
  ~KernelScope();
  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;

  /// Innermost traced kernel on the calling thread, or nullptr (none
  /// open, or tracing was off when it opened).
  [[nodiscard]] static const char* current();

private:
  Histogram* h_;            ///< nullptr when stats were off at entry
  const char* name_;        ///< nullptr when tracing was off at entry
  const char* parent_ = nullptr;
  std::uint64_t begin_ns_ = 0;
};

/// Time the rest of the enclosing block as kernel `name`, a string
/// literal "layer/kernel".  The histogram is looked up once per call site.
#define KRONLAB_KERNEL(name)                                                \
  static ::kronlab::obs::Histogram& kronlab_kernel_hist_ =                  \
      ::kronlab::obs::histogram("kernel/" name);                            \
  const ::kronlab::obs::KernelScope kronlab_kernel_scope_(                  \
      kronlab_kernel_hist_, name)

/// Sampled RAII latency scope for per-event hot paths where even two
/// clock reads per event are too much (the per-op serve histograms: a
/// probe executes in under a microsecond, so timing every one costs
/// ~10% of throughput — X18).  Times 1 in kPeriod events per thread;
/// the skipped events cost one thread-local lookup and a branch.  The
/// first event on each thread is always timed, so any histogram with
/// traffic has count >= 1.  Quantiles from the sample are unbiased;
/// `count` is the SAMPLE count — pair it with an exact event counter
/// (e.g. probes_by_op) when totals matter.
class SampledLatencyScope {
public:
  static constexpr std::uint32_t kPeriod = 8;
  /// Nullable: pass nullptr for an inert scope.
  explicit SampledLatencyScope(Histogram* h)
      : h_(h != nullptr && stats_enabled() && h->tick_sample(kPeriod)
               ? h
               : nullptr),
        begin_ns_(h_ != nullptr ? timer::now_ns() : 0) {}
  ~SampledLatencyScope() {
    if (h_ != nullptr) h_->record(timer::now_ns() - begin_ns_);
  }
  SampledLatencyScope(const SampledLatencyScope&) = delete;
  SampledLatencyScope& operator=(const SampledLatencyScope&) = delete;

private:
  Histogram* h_;
  std::uint64_t begin_ns_;
};

/// Look up (or create) a metric by name.  Names are hierarchical by
/// convention ("serve/op/vertex"); the returned reference is valid for
/// the process lifetime.  O(log n) with a lock — call once and cache.
[[nodiscard]] Counter& counter(std::string_view name);
[[nodiscard]] Gauge& gauge(std::string_view name);
[[nodiscard]] Histogram& histogram(std::string_view name);

/// Merged, point-in-time view of one histogram.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::vector<std::uint64_t> buckets; ///< merged across shards

  /// Value at quantile q in [0,1] (bucket midpoint; exact max for q=1
  /// or when the rank lands in the top occupied bucket).  0 when empty.
  [[nodiscard]] std::uint64_t quantile(double q) const;
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }
};

/// Point-in-time view of the whole registry.
struct StatsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

[[nodiscard]] StatsSnapshot stats_snapshot();

/// Zero every metric (values only — registered names and cached
/// references stay valid).  Bench harness calls this at startup so each
/// JSON carries exactly one run's samples.
void stats_reset();

/// Render a snapshot as a JSON object fragment:
///   {"counters":{...},"gauges":{...},
///    "histograms":{"name":{"count":..,"mean_us":..,"p50_us":..,
///                          "p90_us":..,"p99_us":..,"max_us":..}}}
[[nodiscard]] std::string stats_json(const StatsSnapshot& s);

/// Render a snapshot in Prometheus text exposition format.  Metric names
/// are sanitized ([^a-zA-Z0-9_] -> '_') and prefixed "kronlab_";
/// histograms emit *_count/*_sum plus quantile gauges.
[[nodiscard]] std::string stats_prometheus(const StatsSnapshot& s);

} // namespace kronlab::obs
