// kronlab/obs/trace.hpp
//
// End-to-end tracing: per-thread ring buffers of timestamped events
// (spans, instants, named counters) captured across the whole pipeline —
// grb kernels, kron ground-truth phases, counting kernels, io, and the
// simulated distributed runtime — and exported as Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing) or a compact self-describing
// binary format that `kronlab_trace` converts, merges, summarizes, and
// diffs.
//
// Everything is disabled (one relaxed atomic load per call site) until
// trace::set_enabled(true) is called or the process starts with
// KRONLAB_TRACE=1.  When enabled, each thread appends fixed-size events
// to its own lock-free ring buffer (single writer, no allocation after
// the ring exists), so recording perturbs the measured code as little as
// possible.  The ring overwrites its oldest events when full
// (dropped_events() reports how many); snapshot()/export must only run
// while instrumented threads are quiescent — after pool joins and
// dist::run returns — which is when the release-store on each buffer
// head makes every slot write visible.
//
// Timestamps come from timer::now_ns(), the process-wide steady-clock
// epoch shared with obs/stats, so stats counters folded into a trace
// line up exactly with the spans that produced them.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace kronlab::trace {

/// True when recording is on (set_enabled(true) or KRONLAB_TRACE=1).
[[nodiscard]] bool enabled();

/// Turn recording on or off process-wide.
void set_enabled(bool on);

/// Ring capacity (events) for buffers created *after* this call; existing
/// buffers keep their size.  Default 16384, or KRONLAB_TRACE_BUFFER.
void set_buffer_capacity(std::size_t events);

/// Name the calling thread on the exported timeline ("main", "rank 2",
/// "worker 3", ...).  Cheap; safe to call whether or not tracing is on.
void set_thread_name(std::string name);

/// Copy `s` into the process-lifetime string arena and return a stable
/// pointer.  Use for dynamic detail strings (fault annotations, paths);
/// string literals can be passed to the event API directly.
[[nodiscard]] const char* intern(std::string_view s);

/// RAII span: records [construction, destruction) as one complete event
/// on the calling thread's track.  `cat` / `name` / `detail` must outlive
/// the trace (string literals or intern()ed strings).  Inert when tracing
/// is disabled at construction.
class Span {
public:
  Span(const char* cat, const char* name, const char* detail = nullptr);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  const char* cat_ = nullptr; ///< nullptr = inert
  const char* name_ = nullptr;
  const char* detail_ = nullptr;
  std::uint64_t begin_ns_ = 0;
};

/// Record a complete span with explicit bounds (used by obs::KernelScope,
/// which measures with its own timestamps).
void emit_span(const char* cat, const char* name, std::uint64_t begin_ns,
               std::uint64_t end_ns, const char* detail = nullptr);

/// Zero-duration annotation on the calling thread's track (fault
/// injections, retries, checkpoint writes, ...).
void instant(const char* cat, const char* name,
             const char* detail = nullptr);

/// Named counter sample (rendered as a counter track in Perfetto).
void counter(const char* cat, const char* name, double value);

// ---------------------------------------------------------------------------
// Collection & export.

enum class Kind : std::uint32_t { span = 0, instant = 1, counter = 2 };

/// One decoded event.  `ts_ns` is relative to timer::epoch_unix_ns().
struct TraceEvent {
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0; ///< spans only
  Kind kind = Kind::span;
  std::uint32_t tid = 0;
  double value = 0.0; ///< counters only
  std::string name;
  std::string cat;
  std::string detail;      ///< empty when the event carried none
  std::string thread_name; ///< "thread <tid>" when never named
};

/// All recorded events from every thread, sorted by timestamp.  Must run
/// at quiescence (see the file comment).
[[nodiscard]] std::vector<TraceEvent> snapshot();

/// Drop all recorded events (buffers and thread names stay registered).
void reset();

/// Events lost to ring-buffer wrap since the last reset(), summed over
/// all threads.
[[nodiscard]] std::uint64_t dropped_events();

/// Chrome trace-event JSON for `events` (object form, "traceEvents" plus
/// thread-name metadata; otherData carries the schema tag and the
/// wall-clock epoch for cross-process alignment).  `epoch_unix_ns` == 0
/// means this process's own epoch; converters pass the trace file's.
[[nodiscard]] std::string chrome_json(const std::vector<TraceEvent>& events,
                                      std::uint64_t epoch_unix_ns = 0);

/// Write chrome_json(...) to `path`; throws io_error on failure.
void write_chrome_file(const std::string& path,
                       const std::vector<TraceEvent>& events,
                       std::uint64_t epoch_unix_ns = 0);

/// One parsed binary trace file.
struct TraceFile {
  std::uint64_t epoch_unix_ns = 0;
  std::vector<TraceEvent> events;
};

/// Write `events` as a self-describing binary trace (magic "KRNLTRC1",
/// string table, per-event records) stamped with this process's epoch.
void write_binary_file(const std::string& path,
                       const std::vector<TraceEvent>& events);

/// Read a binary trace file; throws io_error on a missing, truncated, or
/// corrupt file.
[[nodiscard]] TraceFile read_binary_file(const std::string& path);

/// Merge traces onto one clock-aligned timeline: timestamps shift onto
/// the earliest file's epoch and thread ids are re-assigned so tracks
/// from different files never collide.  Result is sorted by timestamp.
[[nodiscard]] std::vector<TraceEvent> merge(
    const std::vector<TraceFile>& files);

} // namespace kronlab::trace

// Convenience RAII macros (unique variable per line).
#define KRONLAB_TRACE_CAT2(a, b) a##b
#define KRONLAB_TRACE_CAT(a, b) KRONLAB_TRACE_CAT2(a, b)
#define KRONLAB_TRACE_SPAN(cat, name)                                       \
  ::kronlab::trace::Span KRONLAB_TRACE_CAT(kronlab_trace_span_, __LINE__) { \
    (cat), (name)                                                           \
  }
#define KRONLAB_TRACE_SPAN_D(cat, name, detail)                             \
  ::kronlab::trace::Span KRONLAB_TRACE_CAT(kronlab_trace_span_, __LINE__) { \
    (cat), (name), (detail)                                                 \
  }
