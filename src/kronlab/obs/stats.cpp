// kronlab/obs/stats.cpp — see stats.hpp for the contract.

#include "kronlab/obs/stats.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "kronlab/common/registry.hpp"
#include "kronlab/common/sync.hpp"
#include "kronlab/obs/trace.hpp"

namespace kronlab::obs {
namespace {

bool env_stats_enabled() {
  const char* v = std::getenv(env::kStats);
  if (v == nullptr) return true; // default on
  const std::string_view s(v);
  return !(s == "0" || s == "off" || s == "false" || s.empty());
}

std::atomic<bool> g_enabled{env_stats_enabled()};

} // namespace

bool stats_enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_stats_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry

struct RegistryImpl {
  struct HistEntry {
    std::unique_ptr<Histogram> hist;
    std::vector<std::unique_ptr<Histogram::Shard>> shards;
    /// Shards of exited threads, handed to the next new recorder so the
    /// shard count tracks live threads, not every thread ever spawned.
    std::vector<Histogram::Shard*> idle;
    std::string name;
  };

  Mutex mu;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters
      GUARDED_BY(mu);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges
      GUARDED_BY(mu);
  std::map<std::string, std::size_t, std::less<>> hist_ids GUARDED_BY(mu);
  std::vector<HistEntry> hists GUARDED_BY(mu); ///< indexed by Histogram::id_

  static RegistryImpl& get() {
    // Deliberately leaked (the trace-registry idiom): metric objects and
    // shards must stay valid through thread teardown at process exit.
    // kronlab-lint: allow(naked-new)
    static RegistryImpl* r = new RegistryImpl;
    return *r;
  }
};

// Per-thread shard cache, indexed by Histogram::id_.  The shards
// themselves are owned by the (leaked) registry, so a thread dying never
// discards data: it returns its shards, counts intact, for reuse.  The
// registry mutex orders the dead writer's stores before the new one's.
namespace {
struct ThreadShards {
  std::vector<Histogram::Shard*> by_id;
  ~ThreadShards() {
    RegistryImpl& r = RegistryImpl::get();
    MutexLock lock(r.mu);
    for (std::size_t id = 0; id < by_id.size(); ++id) {
      if (by_id[id] != nullptr) r.hists[id].idle.push_back(by_id[id]);
    }
  }
};
thread_local ThreadShards tl_shards;
} // namespace

Counter& counter(std::string_view name) {
  RegistryImpl& r = RegistryImpl::get();
  MutexLock lock(r.mu);
  auto it = r.counters.find(name);
  if (it == r.counters.end()) {
    it = r.counters.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& gauge(std::string_view name) {
  RegistryImpl& r = RegistryImpl::get();
  MutexLock lock(r.mu);
  auto it = r.gauges.find(name);
  if (it == r.gauges.end()) {
    it = r.gauges.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& histogram(std::string_view name) {
  RegistryImpl& r = RegistryImpl::get();
  MutexLock lock(r.mu);
  auto it = r.hist_ids.find(name);
  if (it == r.hist_ids.end()) {
    const std::size_t id = r.hists.size();
    RegistryImpl::HistEntry e;
    // Histogram's ctor is private (a free-standing instance would alias
    // another histogram's shard slot), so make_unique can't reach it.
    // kronlab-lint: allow(naked-new)
    e.hist = std::unique_ptr<Histogram>(new Histogram);
    e.hist->id_ = id;
    e.name = std::string(name);
    r.hists.push_back(std::move(e));
    it = r.hist_ids.emplace(std::string(name), id).first;
  }
  return *r.hists[it->second].hist;
}

// ---------------------------------------------------------------------------
// KernelScope

namespace {
thread_local const char* tl_kernel = nullptr;
} // namespace

KernelScope::KernelScope(Histogram& h, const char* name)
    : h_(stats_enabled() ? &h : nullptr),
      name_(trace::enabled() ? name : nullptr) {
  if (name_ != nullptr) {
    parent_ = tl_kernel;
    tl_kernel = name_;
  }
  if (h_ != nullptr || name_ != nullptr) begin_ns_ = timer::now_ns();
}

KernelScope::~KernelScope() {
  if (h_ == nullptr && name_ == nullptr) return;
  const std::uint64_t end_ns = timer::now_ns();
  if (h_ != nullptr) h_->record(end_ns - begin_ns_);
  if (name_ != nullptr) {
    tl_kernel = parent_;
    trace::emit_span("kernel", name_, begin_ns_, end_ns);
  }
}

const char* KernelScope::current() { return tl_kernel; }

// ---------------------------------------------------------------------------
// Histogram

std::size_t Histogram::bucket_of(std::uint64_t v) {
  constexpr std::uint64_t kSubMask = (1u << kSubBits) - 1;
  if (v < (1u << kSubBits)) return static_cast<std::size_t>(v);
  const int h = 63 - std::countl_zero(v);
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(h - kSubBits + 1) << kSubBits) |
      ((v >> (h - kSubBits)) & kSubMask));
}

std::uint64_t Histogram::bucket_mid(std::size_t bucket) {
  if (bucket < (1u << kSubBits)) return bucket;
  const std::uint64_t group = bucket >> kSubBits; // >= 1
  const std::uint64_t sub = bucket & ((1u << kSubBits) - 1);
  const int h = static_cast<int>(group) + kSubBits - 1;
  const std::uint64_t lo = (1ull << h) | (sub << (h - kSubBits));
  return lo + (1ull << (h - kSubBits)) / 2;
}

Histogram::Shard& Histogram::shard() {
  auto& mine = tl_shards.by_id;
  if (id_ < mine.size() && mine[id_] != nullptr) return *mine[id_];
  RegistryImpl& r = RegistryImpl::get();
  MutexLock lock(r.mu);
  auto& entry = r.hists[id_];
  Shard* raw = nullptr;
  if (entry.idle.empty()) {
    entry.shards.push_back(std::make_unique<Shard>());
    raw = entry.shards.back().get();
  } else {
    raw = entry.idle.back();
    entry.idle.pop_back();
    raw->tick = 0; // the new thread's first event is sampled, as documented
  }
  if (mine.size() <= id_) mine.resize(id_ + 1, nullptr);
  mine[id_] = raw;
  return *raw;
}

void Histogram::record(std::uint64_t value) {
  if (!stats_enabled()) return;
  Shard& s = shard();
  // Single writer per shard: plain load+store relaxed beats fetch_add
  // (no lock prefix) and stays race-free for concurrent snapshots.
  std::atomic<std::uint64_t>& b = s.buckets[bucket_of(value)];
  b.store(b.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  s.count.store(s.count.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  s.sum.store(s.sum.load(std::memory_order_relaxed) + value,
              std::memory_order_relaxed);
  if (value > s.max.load(std::memory_order_relaxed)) {
    s.max.store(value, std::memory_order_relaxed);
  }
}

std::uint64_t HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0;
  if (q >= 1.0) return max;
  if (q < 0.0) q = 0.0;
  // 0-based nearest rank: the sample index floor(q * count).
  std::uint64_t rank = static_cast<std::uint64_t>(q * static_cast<double>(count));
  if (rank >= count) rank = count - 1;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cum += buckets[i];
    if (cum > rank) {
      // Midpoint of the bucket the rank falls in, clamped by the exact
      // max so the top bucket never over-reports.
      return std::min(Histogram::bucket_mid(i), max);
    }
  }
  return max;
}

// ---------------------------------------------------------------------------
// Snapshot / reset

StatsSnapshot stats_snapshot() {
  RegistryImpl& r = RegistryImpl::get();
  StatsSnapshot out;
  MutexLock lock(r.mu);
  for (const auto& [name, c] : r.counters) out.counters[name] = c->value();
  for (const auto& [name, g] : r.gauges) out.gauges[name] = g->value();
  for (const auto& entry : r.hists) {
    HistogramSnapshot hs;
    hs.buckets.assign(Histogram::kBuckets, 0);
    for (const auto& shard : entry.shards) {
      hs.count += shard->count.load(std::memory_order_relaxed);
      hs.sum += shard->sum.load(std::memory_order_relaxed);
      hs.max = std::max(hs.max, shard->max.load(std::memory_order_relaxed));
      for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
        hs.buckets[i] += shard->buckets[i].load(std::memory_order_relaxed);
      }
    }
    out.histograms.emplace(entry.name, std::move(hs));
  }
  return out;
}

void stats_reset() {
  RegistryImpl& r = RegistryImpl::get();
  MutexLock lock(r.mu);
  for (auto& [name, c] : r.counters) c->reset();
  for (auto& [name, g] : r.gauges) g->reset();
  for (auto& entry : r.hists) {
    for (auto& shard : entry.shards) {
      shard->count.store(0, std::memory_order_relaxed);
      shard->sum.store(0, std::memory_order_relaxed);
      shard->max.store(0, std::memory_order_relaxed);
      for (auto& b : shard->buckets) b.store(0, std::memory_order_relaxed);
    }
  }
}

// ---------------------------------------------------------------------------
// Renderers

namespace {

void append_json_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
    case '"': out += "\\\""; break;
    case '\\': out += "\\\\"; break;
    case '\n': out += "\\n"; break;
    case '\t': out += "\\t"; break;
    default:
      if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
  }
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  out += buf;
}

double ns_to_us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Prometheus metric name: kronlab_ prefix, [^a-zA-Z0-9_] -> '_'.
std::string prom_name(std::string_view name) {
  std::string out = "kronlab_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

} // namespace

std::string stats_json(const StatsSnapshot& s) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : s.counters) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_json_escaped(out, name);
    out += "\":" + std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : s.gauges) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_json_escaped(out, name);
    out += "\":" + std::to_string(v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : s.histograms) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_json_escaped(out, name);
    out += "\":{\"count\":" + std::to_string(h.count);
    out += ",\"mean_us\":";
    append_double(out, ns_to_us(static_cast<std::uint64_t>(h.mean())));
    out += ",\"p50_us\":";
    append_double(out, ns_to_us(h.quantile(0.50)));
    out += ",\"p90_us\":";
    append_double(out, ns_to_us(h.quantile(0.90)));
    out += ",\"p99_us\":";
    append_double(out, ns_to_us(h.quantile(0.99)));
    out += ",\"max_us\":";
    append_double(out, ns_to_us(h.max));
    out += '}';
  }
  out += "}}";
  return out;
}

std::string stats_prometheus(const StatsSnapshot& s) {
  std::string out;
  for (const auto& [name, v] : s.counters) {
    const std::string p = prom_name(name);
    out += "# TYPE " + p + " counter\n";
    out += p + " " + std::to_string(v) + "\n";
  }
  for (const auto& [name, v] : s.gauges) {
    const std::string p = prom_name(name);
    out += "# TYPE " + p + " gauge\n";
    out += p + " " + std::to_string(v) + "\n";
  }
  for (const auto& [name, h] : s.histograms) {
    const std::string p = prom_name(name) + "_seconds";
    out += "# TYPE " + p + " summary\n";
    for (const double q : {0.50, 0.90, 0.99}) {
      char line[128];
      std::snprintf(line, sizeof line, "%s{quantile=\"%.2f\"} %.9f\n",
                    p.c_str(), q, static_cast<double>(h.quantile(q)) / 1e9);
      out += line;
    }
    char sbuf[64];
    std::snprintf(sbuf, sizeof sbuf, "%.9f",
                  static_cast<double>(h.sum) / 1e9);
    out += p + "_sum " + sbuf + "\n";
    out += p + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

} // namespace kronlab::obs
