#include "kronlab/parallel/thread_pool.hpp"

#include <charconv>
#include <cstdlib>
#include <string>

#include "kronlab/common/registry.hpp"
#include "kronlab/obs/log.hpp"
#include "kronlab/obs/stats.hpp"
#include "kronlab/obs/trace.hpp"

namespace kronlab {

namespace {
thread_local bool tl_in_parallel = false;
thread_local ThreadPool* tl_pool_override = nullptr;
} // namespace

bool ThreadPool::in_parallel_region() { return tl_in_parallel; }

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  workers_.reserve(num_threads - 1);
  for (std::size_t id = 1; id < num_threads; ++id) {
    workers_.emplace_back([this, id] { worker_loop(id); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(std::size_t id) {
  trace::set_thread_name("worker " + std::to_string(id));
  std::size_t seen_epoch = 0;
  for (;;) {
    const std::function<void(std::size_t)>* job = nullptr;
    {
      MutexLock lock(mutex_);
      while (!stop_ && epoch_ == seen_epoch) cv_start_.wait(mutex_);
      if (stop_) return;
      seen_epoch = epoch_;
      job = job_;
    }
    // Live pool-utilization gauge: workers currently inside a job.
    static obs::Gauge& busy_gauge = obs::gauge("parallel/pool_busy");
    busy_gauge.add(1);
    try {
      tl_in_parallel = true;
      (*job)(id);
      tl_in_parallel = false;
    } catch (...) {
      tl_in_parallel = false;
      MutexLock lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    busy_gauge.add(-1);
    {
      MutexLock lock(mutex_);
      if (--remaining_ == 0) cv_done_.notify_one();
    }
  }
}

void ThreadPool::run(const std::function<void(std::size_t)>& fn) {
  if (tl_in_parallel) {
    fn(0); // nested region: forking would deadlock, degrade to inline
    return;
  }
  if (workers_.empty()) {
    fn(0); // single-threaded pool: just run inline
    return;
  }
  // One fork/join at a time: a second external caller (another simulated
  // rank thread) waits here rather than clobbering job_/remaining_.
  MutexLock run_lock(run_mutex_);
  static obs::Gauge& size_gauge = obs::gauge("parallel/pool_size");
  size_gauge.set(static_cast<std::int64_t>(workers_.size() + 1));
  {
    MutexLock lock(mutex_);
    job_ = &fn;
    remaining_ = workers_.size();
    first_error_ = nullptr;
    ++epoch_;
  }
  cv_start_.notify_all();
  // The calling thread participates as worker 0.
  static obs::Gauge& busy_gauge = obs::gauge("parallel/pool_busy");
  busy_gauge.add(1);
  std::exception_ptr local_error;
  try {
    tl_in_parallel = true;
    fn(0);
    tl_in_parallel = false;
  } catch (...) {
    tl_in_parallel = false;
    local_error = std::current_exception();
  }
  busy_gauge.add(-1);
  std::exception_ptr pool_error;
  {
    MutexLock lock(mutex_);
    while (remaining_ != 0) cv_done_.wait(mutex_);
    job_ = nullptr;
    pool_error = first_error_;
  }
  if (local_error) std::rethrow_exception(local_error);
  if (pool_error) std::rethrow_exception(pool_error);
}

ScopedPoolOverride::ScopedPoolOverride(ThreadPool& pool)
    : prev_(tl_pool_override) {
  tl_pool_override = &pool;
}

ScopedPoolOverride::~ScopedPoolOverride() { tl_pool_override = prev_; }

std::optional<std::size_t> parse_thread_count(std::string_view text) {
  std::size_t n = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, n);
  if (ec != std::errc{} || ptr != end || n == 0) return std::nullopt;
  return n;
}

ThreadPool& global_pool() {
  if (tl_pool_override != nullptr) return *tl_pool_override;
  static ThreadPool pool([] {
    const char* env = std::getenv(env::kThreads);
    if (env == nullptr) return std::size_t{0};
    if (const auto n = parse_thread_count(env)) return *n;
    obs::log(obs::LogLevel::warn, "parallel", "bad_thread_count")
        .field("var", env::kThreads)
        .field("value", env)
        .field("fallback", "hardware_concurrency");
    return std::size_t{0};
  }());
  return pool;
}

} // namespace kronlab
