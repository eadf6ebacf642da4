// perfbench/src/trace.hpp
//
// The benchmark's own span recorder.  Spans are opened in the benchmark's
// files around each call into a kronlab layer (kron, io, graph, dist,
// serve, grb); nothing inside the library is instrumented.  A span has a
// name "<layer>.<call>", a start and end on the steady clock, a parent
// (the innermost open span of the thread, or an explicit parent for work
// handed to another thread) and, for a serve frame, its request id.
//
// Spans stay in per-thread memory buffers while the run measures and are
// written out once, at exit.  Recording is off unless set_enabled(true):
// a disabled Span costs one relaxed load.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

using SpanId = std::uint64_t; ///< 0 = no span

struct Record {
  SpanId id = 0;
  SpanId parent = 0;
  const char* name = "";    ///< string literal, "<layer>.<call>"
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t request = 0; ///< serve request id, 0 otherwise
  std::uint32_t thread = 0;
};

void set_enabled(bool on);
[[nodiscard]] bool enabled();

/// Steady-clock nanoseconds.
[[nodiscard]] std::uint64_t now_ns();

/// RAII span.  The one-argument form nests under the innermost open span
/// of the calling thread; the explicit form names a parent opened on
/// another thread (the rank threads of a dist run).
class Span {
public:
  explicit Span(const char* name);
  Span(const char* name, SpanId parent);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] SpanId id() const { return rec_.id; }

  /// Tag the span with a request id learned after it opened.
  void set_request(std::uint64_t request) { rec_.request = request; }

private:
  Record rec_;
};

/// Innermost open span of the calling thread (0 when none).
[[nodiscard]] SpanId current();

/// Every span recorded so far, from every thread.
[[nodiscard]] std::vector<Record> collect();

/// Per-name totals over the descendants of `root`.  Self time is a span's
/// duration minus the part of it its children cover.  Same-name siblings
/// that overlap in time (the ranks of one dist call) are one call and
/// count by the slowest, so every figure stays wall-clock time.
struct NameStats {
  std::uint64_t calls = 0;
  double total_ns = 0;
  double self_ns = 0;
};
[[nodiscard]] std::map<std::string, NameStats> summarize(
    const std::vector<Record>& spans, SpanId root);

/// Mean duration of one `name` span in `names`, ms (0 when absent).
[[nodiscard]] double mean_ms(const std::map<std::string, NameStats>& names,
                             const std::string& name);

/// Layer of a span name: the text before the first '.'.
[[nodiscard]] std::string layer_of(const std::string& name);

/// Print the per-layer self-time table of `root` to stdout: one row per
/// layer and one per span name, with shares of the summed "op.*" time.
void print_table(const std::vector<Record>& spans, SpanId root,
                 const std::string& title);

/// Spans written per name; the rest are counted as dropped.  The
/// in-memory summaries always use every span.
inline constexpr std::size_t kMaxSpansPerName = 1000;

/// Write spans as Chrome trace-event JSON (complete "X" events whose args
/// carry id, parent and request), the first kMaxSpansPerName of each
/// name.  Returns false when the file cannot be written.
bool write_json(const std::vector<Record>& spans, const std::string& path);

} // namespace perfbench::trace
