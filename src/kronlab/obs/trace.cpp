#include "kronlab/obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_set>

#include "kronlab/common/error.hpp"
#include "kronlab/common/registry.hpp"
#include "kronlab/common/sync.hpp"
#include "kronlab/common/timer.hpp"

namespace kronlab::trace {

namespace {

std::atomic<bool> g_enabled{[] {
  const char* env = std::getenv(kronlab::env::kTrace);
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}()};

std::atomic<std::size_t> g_capacity{[]() -> std::size_t {
  if (const char* env = std::getenv(kronlab::env::kTraceBuffer)) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 16384;
}()};

/// Fixed-size in-ring record.  Strings are stable pointers (literals or
/// arena-interned); detail may be null.
struct RawEvent {
  std::uint64_t ts_ns;
  std::uint64_t dur_ns;
  const char* name;
  const char* cat;
  const char* detail;
  double value;
  std::uint32_t kind;
  std::uint32_t pad;
};

/// One thread's track: single-writer ring plus identity.  `head` counts
/// every event ever pushed; the release-store pairs with snapshot()'s
/// acquire-load so slot writes are visible at quiescence.
struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::string name;                ///< registry mutex guards writes
  std::unique_ptr<RawEvent[]> ring;
  std::size_t capacity = 0;
  std::atomic<std::uint64_t> head{0};
};

struct Registry {
  Mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers GUARDED_BY(mu);
  std::unordered_set<std::string> arena GUARDED_BY(mu);
};

Registry& registry() {
  // kronlab-analyze: allow(naked-new) deliberately leaked: exiting
  // rank/worker threads may still push into their buffers during static
  // destruction.
  static Registry* r = new Registry;
  return *r;
}

thread_local ThreadBuffer* tl_buf = nullptr;

/// This thread's buffer, registering (and optionally allocating the ring
/// for) it on first use.  Buffers are never removed: a finished rank or
/// worker thread's events stay exportable.
ThreadBuffer& buffer(bool want_ring) {
  ThreadBuffer* b = tl_buf;
  if (b == nullptr) {
    auto& reg = registry();
    MutexLock lock(reg.mu);
    auto owned = std::make_unique<ThreadBuffer>();
    owned->tid = static_cast<std::uint32_t>(reg.buffers.size());
    b = owned.get();
    reg.buffers.push_back(std::move(owned));
    tl_buf = b;
  }
  if (want_ring && b->capacity == 0) {
    auto& reg = registry();
    MutexLock lock(reg.mu);
    b->capacity = std::max<std::size_t>(
        std::size_t{16}, g_capacity.load(std::memory_order_relaxed));
    b->ring = std::make_unique<RawEvent[]>(b->capacity);
  }
  return *b;
}

void push(const RawEvent& ev) {
  ThreadBuffer& b = buffer(/*want_ring=*/true);
  const std::uint64_t h = b.head.load(std::memory_order_relaxed);
  b.ring[h % b.capacity] = ev;
  b.head.store(h + 1, std::memory_order_release);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
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
  return out;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

} // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

void set_buffer_capacity(std::size_t events) {
  g_capacity.store(std::max<std::size_t>(std::size_t{16}, events),
                   std::memory_order_relaxed);
}

void set_thread_name(std::string name) {
  ThreadBuffer& b = buffer(/*want_ring=*/false);
  auto& reg = registry();
  MutexLock lock(reg.mu);
  b.name = std::move(name);
}

const char* intern(std::string_view s) {
  auto& reg = registry();
  MutexLock lock(reg.mu);
  return reg.arena.emplace(s).first->c_str();
}

Span::Span(const char* cat, const char* name, const char* detail) {
  if (!enabled() || cat == nullptr || name == nullptr) return;
  cat_ = cat;
  name_ = name;
  detail_ = detail;
  begin_ns_ = timer::now_ns();
}

Span::~Span() {
  if (cat_ == nullptr) return;
  emit_span(cat_, name_, begin_ns_, timer::now_ns(), detail_);
}

void emit_span(const char* cat, const char* name, std::uint64_t begin_ns,
               std::uint64_t end_ns, const char* detail) {
  if (!enabled()) return;
  push({begin_ns, end_ns >= begin_ns ? end_ns - begin_ns : 0, name, cat,
        detail, 0.0, static_cast<std::uint32_t>(Kind::span), 0});
}

void instant(const char* cat, const char* name, const char* detail) {
  if (!enabled()) return;
  push({timer::now_ns(), 0, name, cat, detail, 0.0,
        static_cast<std::uint32_t>(Kind::instant), 0});
}

void counter(const char* cat, const char* name, double value) {
  if (!enabled()) return;
  push({timer::now_ns(), 0, name, cat, nullptr, value,
        static_cast<std::uint32_t>(Kind::counter), 0});
}

std::vector<TraceEvent> snapshot() {
  std::vector<TraceEvent> out;
  auto& reg = registry();
  MutexLock lock(reg.mu);
  for (const auto& b : reg.buffers) {
    const std::uint64_t h = b->head.load(std::memory_order_acquire);
    if (h == 0) continue;
    const std::uint64_t kept =
        std::min<std::uint64_t>(h, static_cast<std::uint64_t>(b->capacity));
    const std::string tname =
        b->name.empty() ? "thread " + std::to_string(b->tid) : b->name;
    for (std::uint64_t k = h - kept; k < h; ++k) {
      const RawEvent& ev = b->ring[k % b->capacity];
      TraceEvent e;
      e.ts_ns = ev.ts_ns;
      e.dur_ns = ev.dur_ns;
      e.kind = static_cast<Kind>(ev.kind);
      e.tid = b->tid;
      e.value = ev.value;
      e.name = ev.name;
      e.cat = ev.cat;
      if (ev.detail != nullptr) e.detail = ev.detail;
      e.thread_name = tname;
      out.push_back(std::move(e));
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

void reset() {
  auto& reg = registry();
  MutexLock lock(reg.mu);
  for (const auto& b : reg.buffers) {
    b->head.store(0, std::memory_order_release);
  }
}

std::uint64_t dropped_events() {
  std::uint64_t dropped = 0;
  auto& reg = registry();
  MutexLock lock(reg.mu);
  for (const auto& b : reg.buffers) {
    const std::uint64_t h = b->head.load(std::memory_order_acquire);
    const auto cap = static_cast<std::uint64_t>(b->capacity);
    if (h > cap) dropped += h - cap;
  }
  return dropped;
}

// ---------------------------------------------------------------------------
// Chrome trace-event JSON.

std::string chrome_json(const std::vector<TraceEvent>& events,
                        std::uint64_t epoch_unix_ns) {
  if (epoch_unix_ns == 0) epoch_unix_ns = timer::epoch_unix_ns();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    out += first ? "\n" : ",\n";
    first = false;
  };
  // Thread-name metadata first, one per track.
  std::map<std::uint32_t, std::string> names;
  for (const auto& e : events) names.emplace(e.tid, e.thread_name);
  for (const auto& [tid, name] : names) {
    sep();
    out += "{\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(tid) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
           json_escape(name) + "\"}}";
  }
  for (const auto& e : events) {
    sep();
    const double ts_us = static_cast<double>(e.ts_ns) / 1e3;
    out += "{\"pid\":0,\"tid\":" + std::to_string(e.tid) +
           ",\"ts\":" + num(ts_us) + ",\"cat\":\"" + json_escape(e.cat) +
           "\",\"name\":\"" + json_escape(e.name) + "\"";
    switch (e.kind) {
      case Kind::span:
        out += ",\"ph\":\"X\",\"dur\":" +
               num(static_cast<double>(e.dur_ns) / 1e3);
        if (!e.detail.empty()) {
          out += ",\"args\":{\"detail\":\"" + json_escape(e.detail) + "\"}";
        }
        break;
      case Kind::instant:
        out += ",\"ph\":\"i\",\"s\":\"t\"";
        if (!e.detail.empty()) {
          out += ",\"args\":{\"detail\":\"" + json_escape(e.detail) + "\"}";
        }
        break;
      case Kind::counter:
        out += ",\"ph\":\"C\",\"args\":{\"value\":" + num(e.value) + "}";
        break;
    }
    out += "}";
  }
  out += first ? "]" : "\n]";
  out += ",\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":"
         "\"kronlab-trace-v1\",\"epoch_unix_ns\":\"" +
         std::to_string(epoch_unix_ns) + "\"}}\n";
  return out;
}

void write_chrome_file(const std::string& path,
                       const std::vector<TraceEvent>& events,
                       std::uint64_t epoch_unix_ns) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw io_error("trace: cannot write " + path);
  f << chrome_json(events, epoch_unix_ns);
  f.close();
  if (!f) throw io_error("trace: failed writing " + path);
}

// ---------------------------------------------------------------------------
// Binary format "KRNLTRC1".
//
//   magic[8] version:u32 reserved:u32 epoch_unix_ns:u64
//   nstrings:u32  { len:u32 bytes[len] } ...        (index 0 is always "")
//   nthreads:u32  { tid:u32 name_idx:u32 } ...
//   nevents:u64   { ts:u64 dur:u64 tid:u32 kind:u32
//                   name_idx:u32 cat_idx:u32 detail_idx:u32 pad:u32
//                   value:f64 } ...

namespace {

constexpr const char (&kMagic)[8] = magic::kTrc1;
constexpr std::uint32_t kVersion = 1;
constexpr std::uint64_t kMaxEvents = std::uint64_t{1} << 32;
constexpr std::uint32_t kMaxStrings = 1u << 24;
constexpr std::uint32_t kMaxStringLen = 1u << 20;

template <typename T>
void put(std::ostream& out, T v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
T get(std::istream& in, const std::string& path) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!in) throw io_error("trace: truncated trace file " + path);
  return v;
}

} // namespace

void write_binary_file(const std::string& path,
                       const std::vector<TraceEvent>& events) {
  std::map<std::string, std::uint32_t> strings{{"", 0}};
  const auto idx = [&](const std::string& s) {
    const auto [it, inserted] =
        strings.emplace(s, static_cast<std::uint32_t>(strings.size()));
    (void)inserted;
    return it->second;
  };
  std::map<std::uint32_t, std::uint32_t> threads; // tid → name idx
  struct Rec {
    std::uint32_t name, cat, detail;
  };
  std::vector<Rec> recs;
  recs.reserve(events.size());
  for (const auto& e : events) {
    threads.emplace(e.tid, idx(e.thread_name));
    recs.push_back({idx(e.name), idx(e.cat), idx(e.detail)});
  }
  // The map iterates in key order, not index order: rebuild by index.
  std::vector<const std::string*> table(strings.size());
  for (const auto& [s, i] : strings) table[i] = &s;

  std::ofstream f(path, std::ios::trunc | std::ios::binary);
  if (!f) throw io_error("trace: cannot write " + path);
  f.write(kMagic, sizeof kMagic);
  put<std::uint32_t>(f, kVersion);
  put<std::uint32_t>(f, 0);
  put<std::uint64_t>(f, timer::epoch_unix_ns());
  put<std::uint32_t>(f, static_cast<std::uint32_t>(table.size()));
  for (const auto* s : table) {
    put<std::uint32_t>(f, static_cast<std::uint32_t>(s->size()));
    f.write(s->data(), static_cast<std::streamsize>(s->size()));
  }
  put<std::uint32_t>(f, static_cast<std::uint32_t>(threads.size()));
  for (const auto& [tid, name_idx] : threads) {
    put<std::uint32_t>(f, tid);
    put<std::uint32_t>(f, name_idx);
  }
  put<std::uint64_t>(f, static_cast<std::uint64_t>(events.size()));
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    put<std::uint64_t>(f, e.ts_ns);
    put<std::uint64_t>(f, e.dur_ns);
    put<std::uint32_t>(f, e.tid);
    put<std::uint32_t>(f, static_cast<std::uint32_t>(e.kind));
    put<std::uint32_t>(f, recs[i].name);
    put<std::uint32_t>(f, recs[i].cat);
    put<std::uint32_t>(f, recs[i].detail);
    put<std::uint32_t>(f, 0);
    put<double>(f, e.value);
  }
  f.close();
  if (!f) throw io_error("trace: failed writing " + path);
}

TraceFile read_binary_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw io_error("trace: cannot open " + path);
  char magic[8];
  f.read(magic, sizeof magic);
  if (!f || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    throw io_error("trace: " + path + " is not a KRNLTRC1 trace file");
  }
  const auto version = get<std::uint32_t>(f, path);
  if (version != kVersion) {
    throw io_error("trace: " + path + ": unsupported version " +
                   std::to_string(version));
  }
  (void)get<std::uint32_t>(f, path); // reserved
  TraceFile out;
  out.epoch_unix_ns = get<std::uint64_t>(f, path);

  const auto nstrings = get<std::uint32_t>(f, path);
  if (nstrings == 0 || nstrings > kMaxStrings) {
    throw io_error("trace: " + path + ": implausible string table");
  }
  std::vector<std::string> table(nstrings);
  for (auto& s : table) {
    const auto len = get<std::uint32_t>(f, path);
    if (len > kMaxStringLen) {
      throw io_error("trace: " + path + ": implausible string length");
    }
    s.resize(len);
    f.read(s.data(), len);
    if (!f) throw io_error("trace: truncated trace file " + path);
  }
  const auto str = [&](std::uint32_t i) -> const std::string& {
    if (i >= table.size()) {
      throw io_error("trace: " + path + ": string index out of range");
    }
    return table[i];
  };

  const auto nthreads = get<std::uint32_t>(f, path);
  if (nthreads > kMaxStrings) {
    throw io_error("trace: " + path + ": implausible thread count");
  }
  std::map<std::uint32_t, std::string> thread_names;
  for (std::uint32_t i = 0; i < nthreads; ++i) {
    const auto tid = get<std::uint32_t>(f, path);
    const auto name_idx = get<std::uint32_t>(f, path);
    thread_names[tid] = str(name_idx);
  }

  const auto nevents = get<std::uint64_t>(f, path);
  if (nevents > kMaxEvents) {
    throw io_error("trace: " + path + ": implausible event count");
  }
  out.events.reserve(static_cast<std::size_t>(nevents));
  for (std::uint64_t i = 0; i < nevents; ++i) {
    TraceEvent e;
    e.ts_ns = get<std::uint64_t>(f, path);
    e.dur_ns = get<std::uint64_t>(f, path);
    e.tid = get<std::uint32_t>(f, path);
    const auto kind = get<std::uint32_t>(f, path);
    if (kind > static_cast<std::uint32_t>(Kind::counter)) {
      throw io_error("trace: " + path + ": unknown event kind");
    }
    e.kind = static_cast<Kind>(kind);
    e.name = str(get<std::uint32_t>(f, path));
    e.cat = str(get<std::uint32_t>(f, path));
    e.detail = str(get<std::uint32_t>(f, path));
    (void)get<std::uint32_t>(f, path); // pad
    e.value = get<double>(f, path);
    const auto it = thread_names.find(e.tid);
    e.thread_name = it != thread_names.end()
                        ? it->second
                        : "thread " + std::to_string(e.tid);
    out.events.push_back(std::move(e));
  }
  return out;
}

std::vector<TraceEvent> merge(const std::vector<TraceFile>& files) {
  std::vector<TraceEvent> out;
  if (files.empty()) return out;
  std::uint64_t base = files.front().epoch_unix_ns;
  for (const auto& f : files) base = std::min(base, f.epoch_unix_ns);
  std::map<std::pair<std::size_t, std::uint32_t>, std::uint32_t> tids;
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const std::uint64_t shift = files[fi].epoch_unix_ns - base;
    for (const auto& e : files[fi].events) {
      const auto [it, inserted] = tids.emplace(
          std::make_pair(fi, e.tid), static_cast<std::uint32_t>(tids.size()));
      (void)inserted;
      TraceEvent copy = e;
      copy.ts_ns += shift;
      copy.tid = it->second;
      out.push_back(std::move(copy));
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

} // namespace kronlab::trace
