#include "kronlab/parallel/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "kronlab/common/registry.hpp"
#include "kronlab/obs/trace.hpp"

namespace kronlab::metrics {

namespace {

std::atomic<bool> g_enabled{[] {
  const char* env = std::getenv(kronlab::env::kMetrics);
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}()};

thread_local KernelScope* tl_current = nullptr;

struct Registry {
  Mutex mu;
  std::map<std::string, KernelStats> kernels GUARDED_BY(mu);
};

Registry& registry() {
  static Registry r;
  return r;
}

std::string format_seconds(double s) {
  char buf[32];
  if (s >= 1.0) {
    std::snprintf(buf, sizeof buf, "%.2f s", s);
  } else if (s >= 1e-3) {
    std::snprintf(buf, sizeof buf, "%.2f ms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.1f us", s * 1e6);
  }
  return buf;
}

} // namespace

double KernelStats::imbalance() const {
  if (busy_seconds <= 0.0 || max_workers <= 1) return 1.0;
  return max_worker_seconds * static_cast<double>(max_workers) /
         busy_seconds;
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

KernelScope::KernelScope(std::string name) : name_(std::move(name)) {
  // Kernel scopes double as trace spans: every instrumented kernel lands
  // on the timeline even when metrics aggregation is off.
  if (trace::enabled()) {
    trace_name_ = trace::intern(name_);
    start_ns_ = timer::now_ns();
  }
  if (!enabled()) return;
  active_ = true;
  parent_ = tl_current;
  tl_current = this;
  if (trace_name_ == nullptr) start_ns_ = timer::now_ns();
}

KernelScope::~KernelScope() {
  if (trace_name_ != nullptr) {
    trace::emit_span("kernel", trace_name_, start_ns_, timer::now_ns());
  }
  if (!active_) return;
  tl_current = parent_;
  const double wall =
      static_cast<double>(timer::now_ns() - start_ns_) * 1e-9;
  // The fork/join barrier guarantees no note_worker() is still running,
  // but the measurements are guarded state: snapshot them under mu_
  // rather than relying on that external invariant.
  double busy = 0.0, max_busy = 0.0;
  std::uint64_t chunks = 0, items = 0;
  std::size_t workers = 0;
  {
    MutexLock lock(mu_);
    for (const double b : worker_busy_) {
      busy += b;
      max_busy = std::max(max_busy, b);
    }
    chunks = chunks_;
    items = items_;
    workers = worker_busy_.size();
  }
  auto& reg = registry();
  MutexLock lock(reg.mu);
  auto& st = reg.kernels[name_];
  ++st.calls;
  st.wall_seconds += wall;
  st.busy_seconds += busy;
  st.max_worker_seconds += max_busy;
  st.chunks += chunks;
  st.items += items;
  st.max_workers = std::max(st.max_workers, workers);
}

KernelScope* KernelScope::current() { return tl_current; }

void KernelScope::note_worker(std::size_t worker, double busy_seconds,
                              std::uint64_t chunks, std::uint64_t items) {
  if (!active_) return;
  MutexLock lock(mu_);
  if (worker_busy_.size() <= worker) worker_busy_.resize(worker + 1, 0.0);
  worker_busy_[worker] += busy_seconds;
  chunks_ += chunks;
  items_ += items;
}

ScopedRecording::ScopedRecording() : prev_(enabled()) {
  set_enabled(true);
  reset();
}

ScopedRecording::~ScopedRecording() { set_enabled(prev_); }

std::map<std::string, KernelStats> snapshot() {
  auto& reg = registry();
  MutexLock lock(reg.mu);
  return reg.kernels;
}

void reset() {
  auto& reg = registry();
  MutexLock lock(reg.mu);
  reg.kernels.clear();
}

void merge(KernelStats& into, const KernelStats& other) {
  into.calls += other.calls;
  into.wall_seconds += other.wall_seconds;
  into.busy_seconds += other.busy_seconds;
  into.max_worker_seconds += other.max_worker_seconds;
  into.chunks += other.chunks;
  into.items += other.items;
  into.max_workers = std::max(into.max_workers, other.max_workers);
}

std::string report_text() { return report_text(snapshot()); }

std::string report_text(const std::map<std::string, KernelStats>& kernels) {
  std::vector<std::pair<std::string, KernelStats>> rows(kernels.begin(),
                                                        kernels.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.wall_seconds > b.second.wall_seconds;
  });
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "%-32s %7s %10s %10s %7s %9s %9s\n",
                "kernel", "calls", "wall", "busy", "workers", "chunks",
                "imbalance");
  out += line;
  for (const auto& [name, st] : rows) {
    std::snprintf(line, sizeof line,
                  "%-32s %7llu %10s %10s %7zu %9llu %9.2f\n", name.c_str(),
                  static_cast<unsigned long long>(st.calls),
                  format_seconds(st.wall_seconds).c_str(),
                  format_seconds(st.busy_seconds).c_str(), st.max_workers,
                  static_cast<unsigned long long>(st.chunks),
                  st.imbalance());
    out += line;
  }
  if (rows.empty()) out += "(no kernels recorded)\n";
  return out;
}

std::string report_json() { return report_json(snapshot()); }

std::string report_json(const std::map<std::string, KernelStats>& kernels) {
  std::string out = "{\"kernels\":[";
  bool first = true;
  char buf[384];
  for (const auto& [name, st] : kernels) {
    std::snprintf(
        buf, sizeof buf,
        "%s{\"name\":\"%s\",\"calls\":%llu,\"wall_seconds\":%.9f,"
        "\"busy_seconds\":%.9f,\"max_worker_seconds\":%.9f,"
        "\"chunks\":%llu,\"items\":%llu,\"max_workers\":%zu,"
        "\"imbalance\":%.4f}",
        first ? "" : ",", name.c_str(),
        static_cast<unsigned long long>(st.calls), st.wall_seconds,
        st.busy_seconds, st.max_worker_seconds,
        static_cast<unsigned long long>(st.chunks),
        static_cast<unsigned long long>(st.items), st.max_workers,
        st.imbalance());
    first = false;
    out += buf;
  }
  out += "]}";
  return out;
}

} // namespace kronlab::metrics
