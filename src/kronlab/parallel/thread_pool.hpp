// kronlab/parallel/thread_pool.hpp
//
// A small fixed-size thread pool used by the parallel kernels.
//
// Design notes (following the shared-memory model of the HPC guides):
//  * All parallelism in kronlab is explicit fork/join over index ranges —
//    there are no detached tasks, so shutdown is deterministic (RAII).
//  * The pool is created once (see global_pool()) because thread creation
//    costs dominate kernels on factor-sized inputs.
//  * Exceptions thrown by workers are captured and rethrown on the calling
//    thread after the join, so parallel kernels keep the same error contract
//    as serial ones.

#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "kronlab/common/sync.hpp"

namespace kronlab {

class ThreadPool {
public:
  /// Create a pool with `num_threads` workers.  `num_threads == 0` selects
  /// std::thread::hardware_concurrency() (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (>= 1).
  [[nodiscard]] std::size_t size() const { return workers_.size() + 1; }

  /// Run `fn(worker_id)` on every worker (ids 0..size()-1, id 0 is the
  /// calling thread) and wait for all of them.  Rethrows the first captured
  /// worker exception.
  ///
  /// Calling run() from inside a parallel region (i.e. from a worker that
  /// is itself executing a job) would deadlock the fork/join protocol, so
  /// nested calls degrade to executing `fn(0)` inline on the caller: only
  /// worker 0's share of the job runs.  The parallel_for helpers never
  /// reach that path — they detect nesting first and run the whole range
  /// serially — so library code may call them from any context.
  ///
  /// Concurrent run() calls from *distinct* threads (e.g. simulated
  /// distributed ranks each invoking a parallel kernel) serialize on an
  /// internal mutex: one fork/join completes before the next starts.
  /// Without that, two callers overwrite each other's job pointer and
  /// completion count — lost work at best, a deadlocked caller at worst.
  void run(const std::function<void(std::size_t)>& fn);

  /// True while the current thread is executing inside a pool job — used
  /// by the loop helpers to serialize nested parallelism.
  [[nodiscard]] static bool in_parallel_region();

private:
  void worker_loop(std::size_t id);

  std::vector<std::thread> workers_;
  Mutex run_mutex_; ///< serializes external run() callers
  Mutex mutex_;     ///< guards the fork/join protocol state below
  CondVar cv_start_;
  CondVar cv_done_;
  const std::function<void(std::size_t)>* job_ GUARDED_BY(mutex_) = nullptr;
  std::size_t epoch_ GUARDED_BY(mutex_) = 0;
  std::size_t remaining_ GUARDED_BY(mutex_) = 0;
  bool stop_ GUARDED_BY(mutex_) = false;
  std::exception_ptr first_error_ GUARDED_BY(mutex_);
};

/// Parse a KRONLAB_THREADS value: a whole positive decimal and nothing
/// else (no sign, space or suffix).  Returns nullopt for anything else.
[[nodiscard]] std::optional<std::size_t>
parse_thread_count(std::string_view text);

/// Process-wide pool, sized from the environment variable KRONLAB_THREADS if
/// set, else hardware concurrency.  A value parse_thread_count rejects logs
/// one warning and falls back to hardware concurrency.  Respects
/// ScopedPoolOverride.
ThreadPool& global_pool();

/// Redirect global_pool() on the current thread to a caller-owned pool for
/// the guard's lifetime.  This is how benchmarks and determinism tests run
/// library kernels (which default to global_pool()) at a chosen width
/// without touching the process-wide singleton.  Overrides nest.
class ScopedPoolOverride {
public:
  explicit ScopedPoolOverride(ThreadPool& pool);
  ~ScopedPoolOverride();

  ScopedPoolOverride(const ScopedPoolOverride&) = delete;
  ScopedPoolOverride& operator=(const ScopedPoolOverride&) = delete;

private:
  ThreadPool* prev_;
};

} // namespace kronlab
