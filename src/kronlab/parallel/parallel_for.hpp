// kronlab/parallel/parallel_for.hpp
//
// Fork/join loop helpers over index ranges, built on ThreadPool.
//
// Two schedules are provided:
//
//  * Static (`parallel_for`, `parallel_for_range`, `parallel_reduce`):
//    [lo, hi) is split into exactly pool.size() contiguous chunks.  Zero
//    dispatch overhead, but one expensive chunk (a hub row of a
//    heavy-tailed factor) serializes the whole loop behind it.
//  * Dynamic (`*_dynamic` variants): workers pull grain-sized chunks off a
//    shared atomic counter until the range is drained, so a worker stuck
//    on a hub row stops claiming new chunks and the others backfill.  The
//    `_scratch` form hands each worker a worker-local scratch object built
//    once per worker (not once per chunk) — this is what lets the wedge
//    table in butterflies.cpp and the SpGEMM accumulator in grb::mxm be
//    O(n) allocations per worker instead of per chunk.
//
// When tracing is on, each dynamic dispatch shows one "parallel" span per
// worker, labelled with the innermost obs::KernelScope (see obs/stats.hpp).
// Nested parallel loops (a parallel kernel called from inside another
// parallel region) are detected and run serially on the calling worker,
// covering their whole range.

#pragma once

#include <algorithm>
#include <atomic>
#include <vector>

#include "kronlab/common/types.hpp"
#include "kronlab/obs/stats.hpp"
#include "kronlab/obs/trace.hpp"
#include "kronlab/parallel/thread_pool.hpp"

namespace kronlab {

/// Minimum work per chunk below which the loop runs serially: parallel
/// dispatch costs more than this many trivial iterations.
inline constexpr index_t parallel_grain = 2048;

/// Run `body(begin, end)` over a partition of [lo, hi) across the pool.
template <typename Body>
void parallel_for_range(index_t lo, index_t hi, Body&& body,
                        ThreadPool& pool = global_pool()) {
  const index_t n = hi - lo;
  if (n <= 0) return;
  const auto threads = static_cast<index_t>(pool.size());
  if (threads == 1 || n < parallel_grain) {
    body(lo, hi);
    return;
  }
  const index_t chunk = (n + threads - 1) / threads;
  pool.run([&](std::size_t id) {
    const index_t b = lo + static_cast<index_t>(id) * chunk;
    const index_t e = std::min(hi, b + chunk);
    if (b < e) body(b, e);
  });
}

/// Run `body(i)` for each i in [lo, hi) in parallel.
template <typename Body>
void parallel_for(index_t lo, index_t hi, Body&& body,
                  ThreadPool& pool = global_pool()) {
  parallel_for_range(
      lo, hi,
      [&](index_t b, index_t e) {
        for (index_t i = b; i < e; ++i) body(i);
      },
      pool);
}

/// Parallel reduction: combine `body(i)` over [lo, hi) with `op`, starting
/// from `init` in each worker-local accumulator.
template <typename T, typename Body, typename Op>
T parallel_reduce(index_t lo, index_t hi, T init, Body&& body, Op&& op,
                  ThreadPool& pool = global_pool()) {
  const index_t n = hi - lo;
  if (n <= 0) return init;
  const auto threads = static_cast<index_t>(pool.size());
  if (threads == 1 || n < parallel_grain) {
    T acc = init;
    for (index_t i = lo; i < hi; ++i) acc = op(acc, body(i));
    return acc;
  }
  const index_t chunk = (n + threads - 1) / threads;
  std::vector<T> partial(static_cast<std::size_t>(threads), init);
  pool.run([&](std::size_t id) {
    const index_t b = lo + static_cast<index_t>(id) * chunk;
    const index_t e = std::min(hi, b + chunk);
    T acc = init;
    for (index_t i = b; i < e; ++i) acc = op(acc, body(i));
    partial[id] = acc;
  });
  T acc = init;
  for (const T& p : partial) acc = op(acc, p);
  return acc;
}

/// Chunk size for the dynamic schedule when the caller passes `grain == 0`:
/// target ~8 chunks per worker so stragglers can be backfilled without
/// drowning in dispatch traffic; floor of 1.
inline index_t dynamic_grain(index_t n, std::size_t threads, index_t grain) {
  if (grain > 0) return grain;
  const index_t chunks = static_cast<index_t>(threads) * 8;
  return std::max<index_t>(index_t{1}, (n + chunks - 1) / chunks);
}

/// Dynamically scheduled chunked loop with worker-local scratch.
///
/// `make_scratch(worker_id)` runs once per participating worker; the
/// returned object is passed by reference to every `body(scratch, b, e)`
/// chunk that worker claims.  Chunks are grain-sized slices of [lo, hi)
/// claimed from a shared atomic counter.  Exceptions thrown by `body` stop
/// further dispatch and are rethrown on the caller.  Runs serially when
/// the pool has one thread, the range fits in one grain, or the call is
/// nested inside another parallel region.
template <typename MakeScratch, typename Body>
void parallel_for_range_dynamic_scratch(index_t lo, index_t hi,
                                        MakeScratch&& make_scratch,
                                        Body&& body,
                                        ThreadPool& pool = global_pool(),
                                        index_t grain = 0) {
  const index_t n = hi - lo;
  if (n <= 0) return;
  const std::size_t threads = pool.size();
  const index_t g = dynamic_grain(n, threads, grain);
  if (threads == 1 || n <= g || ThreadPool::in_parallel_region()) {
    auto scratch = make_scratch(std::size_t{0});
    body(scratch, lo, hi);
    return;
  }
  std::atomic<index_t> next{lo};
  std::atomic<bool> failed{false};
  // Worker busy windows show up as one "parallel" span per worker on the
  // timeline, labelled with the innermost kernel scope's name.
  const char* const kernel = obs::KernelScope::current();
  const char* const span_name = kernel != nullptr ? kernel : "workers";
  pool.run([&](std::size_t id) {
    trace::Span tspan("parallel", span_name);
    auto scratch = make_scratch(id);
    while (!failed.load(std::memory_order_relaxed)) {
      const index_t b = next.fetch_add(g, std::memory_order_relaxed);
      if (b >= hi) break;
      const index_t e = std::min(hi, b + g);
      try {
        body(scratch, b, e);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        throw; // captured by the pool, rethrown after the join
      }
    }
  });
}

namespace detail {
struct NoScratch {};
} // namespace detail

/// Dynamically scheduled `body(begin, end)` over grain-sized chunks.
template <typename Body>
void parallel_for_range_dynamic(index_t lo, index_t hi, Body&& body,
                                ThreadPool& pool = global_pool(),
                                index_t grain = 0) {
  parallel_for_range_dynamic_scratch(
      lo, hi, [](std::size_t) { return detail::NoScratch{}; },
      [&](detail::NoScratch&, index_t b, index_t e) { body(b, e); }, pool,
      grain);
}

/// Dynamically scheduled `body(i)` for each i in [lo, hi).
template <typename Body>
void parallel_for_dynamic(index_t lo, index_t hi, Body&& body,
                          ThreadPool& pool = global_pool(),
                          index_t grain = 0) {
  parallel_for_range_dynamic(
      lo, hi,
      [&](index_t b, index_t e) {
        for (index_t i = b; i < e; ++i) body(i);
      },
      pool, grain);
}

/// Dynamically scheduled reduction: combine `body(i)` over [lo, hi) with
/// `op`, starting from `init` in each worker-local accumulator.  Partials
/// are combined in worker-id order, so results are deterministic across
/// runs and pool sizes for associative, commutative `op` (exact integer
/// sums; floating-point results may differ from a serial loop by rounding).
template <typename T, typename Body, typename Op>
T parallel_reduce_dynamic(index_t lo, index_t hi, T init, Body&& body,
                          Op&& op, ThreadPool& pool = global_pool(),
                          index_t grain = 0) {
  const index_t n = hi - lo;
  if (n <= 0) return init;
  std::vector<T> partial(pool.size(), init);
  parallel_for_range_dynamic_scratch(
      lo, hi, [&](std::size_t id) { return &partial[id]; },
      [&](T*& slot, index_t b, index_t e) {
        T acc = *slot;
        for (index_t i = b; i < e; ++i) acc = op(acc, body(i));
        *slot = acc;
      },
      pool, grain);
  T acc = init;
  for (const T& p : partial) acc = op(acc, p);
  return acc;
}

/// Exclusive prefix sum of `v` (serial — factor-sized arrays only);
/// returns the total.
template <typename T>
T exclusive_scan_inplace(std::vector<T>& v) {
  T running{};
  for (auto& x : v) {
    const T next = running + x;
    x = running;
    running = next;
  }
  return running;
}

} // namespace kronlab
