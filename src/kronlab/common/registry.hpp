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

/// Structured-log threshold: debug|info|warn|error|off (default info).
inline constexpr const char* kLog = "KRONLAB_LOG";

/// Scale fault-injection probabilities in the fault test suites
/// (tests read it directly; defined here so the name has one home).
inline constexpr const char* kFaultRate = "KRONLAB_FAULT_RATE";

} // namespace kronlab::env

namespace kronlab::magic {

// --- on-disk formats -------------------------------------------------------

/// Durable edge-stream segment (io/durable.hpp).
inline constexpr char kSeg2[8] = {'K', 'R', 'N', 'L', 'S', 'E', 'G', '2'};

/// Durable store manifest (io/durable.hpp).
inline constexpr char kMan1[8] = {'K', 'R', 'N', 'L', 'M', 'A', 'N', '1'};

// --- wire protocols --------------------------------------------------------

/// Query-daemon frame envelope (serve/protocol.hpp).  The trailing digit
/// is the protocol version.
inline constexpr char kSrv2[8] = {'K', 'R', 'N', 'L', 'S', 'R', 'V', '2'};

/// Aggregated ghost-row batch frame header word ("BATC", negated so it
/// can never collide with a plausible row length — see dist/aggregator).
inline constexpr std::int64_t kBatchWord = -0x42415443; // "BATC"

} // namespace kronlab::magic
