// kronlab/common/registry.hpp
//
// The single definition point for every cross-cutting *name* the system
// exposes at its boundaries:
//
//  * environment variables (`KRONLAB_*`) that tune the runtime, and
//  * wire/file magics that version every durable or transported format.
//
// Why one header: these names are contracts.  An env var read in one
// place and documented nowhere, or a magic string typed twice, is exactly
// the class of drift the analyzer's `registry` rule
// (scripts/analyze/kronlab_analyze.py) exists to prevent.  The rule
// enforces that (a) every `getenv("KRONLAB_...")` outside this header
// goes through a `kronlab::env` constant, (b) every 8-byte magic literal
// is spelled only here, and (c) every name below is documented in
// README.md or DESIGN.md.  Adding a knob or a format starts here, or the
// static-analysis job fails.
//
// The magic arrays are 8 bytes with no NUL terminator — they are written
// and memcmp'd verbatim, never treated as C strings.

#pragma once

#include <cstdint>

namespace kronlab::env {

// --- runtime knobs (see README "Environment variables") -------------------

/// Worker-thread count of the global pool (default: hardware concurrency).
inline constexpr const char* kThreads = "KRONLAB_THREADS";

/// Enable the tracing subsystem (spans/instants/counters).
inline constexpr const char* kTrace = "KRONLAB_TRACE";

/// Per-thread trace ring-buffer capacity (events).
inline constexpr const char* kTraceBuffer = "KRONLAB_TRACE_BUFFER";

/// Enable the live-telemetry metrics registry (counters/gauges/histograms).
inline constexpr const char* kStats = "KRONLAB_STATS";

/// Structured-log threshold: debug|info|warn|error|off (default info).
inline constexpr const char* kLog = "KRONLAB_LOG";

/// Scale fault-injection probabilities in the fault test suites
/// (tests read it directly; defined here so the name has one home).
inline constexpr const char* kFaultRate = "KRONLAB_FAULT_RATE";

} // namespace kronlab::env

namespace kronlab::magic {

// --- on-disk formats -------------------------------------------------------

/// Checksummed binary CSR (grb/binary_io.hpp).
inline constexpr char kCsr2[8] = {'K', 'R', 'N', 'L', 'C', 'S', 'R', '2'};

/// Checkpoint snapshot envelope: metadata words + embedded CSR.
inline constexpr char kCkp1[8] = {'K', 'R', 'N', 'L', 'C', 'K', 'P', '1'};

/// Durable edge-stream segment (io/durable.hpp).
inline constexpr char kSeg1[8] = {'K', 'R', 'N', 'L', 'S', 'E', 'G', '1'};

/// Durable store manifest (io/durable.hpp).
inline constexpr char kMan1[8] = {'K', 'R', 'N', 'L', 'M', 'A', 'N', '1'};

/// Binary trace file (obs/trace.hpp).
inline constexpr char kTrc1[8] = {'K', 'R', 'N', 'L', 'T', 'R', 'C', '1'};

// --- wire protocols --------------------------------------------------------

/// Query-daemon frame envelope (serve/protocol.hpp).  The trailing digit
/// is the protocol version.
inline constexpr char kSrv1[8] = {'K', 'R', 'N', 'L', 'S', 'R', 'V', '1'};

/// Aggregated ghost-row batch frame header word ("BATC", negated so it
/// can never collide with a plausible row length — see dist/aggregator).
inline constexpr std::int64_t kBatchWord = -0x42415443; // "BATC"

} // namespace kronlab::magic
