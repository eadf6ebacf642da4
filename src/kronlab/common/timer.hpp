// kronlab/common/timer.hpp
//
// Wall-clock timing utilities for the benchmark harnesses.

#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace kronlab {

/// Simple monotonic stopwatch.
class Timer {
public:
  Timer() { reset(); }

  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  [[nodiscard]] double milliseconds() const { return seconds() * 1e3; }

private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

namespace timer {

/// Nanoseconds on the steady clock since the process-wide epoch (anchored
/// the first time any timing subsystem runs).  Both obs/stats and
/// obs/trace stamp with this, so their timestamps are directly comparable
/// and land on one timeline.
[[nodiscard]] std::uint64_t now_ns();

/// CLOCK_REALTIME nanoseconds corresponding to now_ns() == 0.  Stored in
/// trace file headers so traces from different processes can be aligned
/// onto one wall-clock timeline.
[[nodiscard]] std::uint64_t epoch_unix_ns();

} // namespace timer

/// Format a duration like "1.23 s" / "45.6 ms" / "789 us" for reports.
std::string format_duration(double seconds);

/// Format an integer with thousands separators ("3,155,072").
std::string format_count(long long v);

} // namespace kronlab
