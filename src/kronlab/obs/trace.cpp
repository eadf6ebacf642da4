#include "kronlab/obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
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
  std::unique_ptr<RawEvent[]> ring; ///< kRingEvents slots once allocated
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
  if (want_ring && b->ring == nullptr) {
    auto& reg = registry();
    MutexLock lock(reg.mu);
    b->ring = std::make_unique<RawEvent[]>(kRingEvents);
  }
  return *b;
}

void push(const RawEvent& ev) {
  ThreadBuffer& b = buffer(/*want_ring=*/true);
  const std::uint64_t h = b.head.load(std::memory_order_relaxed);
  b.ring[h % kRingEvents] = ev;
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

/// Nanoseconds as microseconds with exactly three decimals: exact for
/// every 64-bit value.
std::string micros(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

} // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
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
    const std::uint64_t kept = std::min<std::uint64_t>(h, kRingEvents);
    const std::string tname =
        b->name.empty() ? "thread " + std::to_string(b->tid) : b->name;
    for (std::uint64_t k = h - kept; k < h; ++k) {
      const RawEvent& ev = b->ring[k % kRingEvents];
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
    if (h > kRingEvents) dropped += h - kRingEvents;
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
    out += "{\"pid\":0,\"tid\":" + std::to_string(e.tid) +
           ",\"ts\":" + micros(e.ts_ns) + ",\"cat\":\"" + json_escape(e.cat) +
           "\",\"name\":\"" + json_escape(e.name) + "\"";
    switch (e.kind) {
      case Kind::span:
        out += ",\"ph\":\"X\",\"dur\":" + micros(e.dur_ns);
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
// Chrome trace-event JSON reader: the subset chrome_json() writes, read
// as untrusted bytes.  Every failure is an io_error.

namespace {

/// Deepest nesting accepted; chrome_json() writes 4 levels (root,
/// traceEvents, event, args).  The cap bounds the parser's recursion.
constexpr int kMaxDepth = 16;

/// Largest `ts` or `dur` accepted, in ns (2^62, ~146 years), so that
/// ts + dur and merge shifts stay far from overflow.
constexpr double kMaxNs = 4611686018427387904.0;

[[noreturn]] void malformed(const std::string& path, const std::string& what) {
  throw io_error("trace: " + path + ": " + what);
}

struct Json {
  enum class Type { null, boolean, number, string, array, object } type =
      Type::null;
  double n = 0.0;
  std::string s;
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;

  [[nodiscard]] const Json* get(std::string_view key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

struct JsonParser {
  const char* p;
  const char* end;
  const std::string& path;

  [[noreturn]] void fail(const char* what) const { malformed(path, what); }

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }

  void expect(char c, const char* what) {
    if (!eat(c)) fail(what);
  }

  std::string parse_string() {
    expect('"', "expected string");
    std::string out;
    while (p < end && *p != '"') {
      char c = *p++;
      if (c == '\\') {
        if (p >= end) fail("truncated escape");
        const char e = *p++;
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (end - p < 4) fail("truncated \\u escape");
            unsigned v = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = *p++;
              v <<= 4;
              if (h >= '0' && h <= '9') {
                v += static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                v += static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                v += static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail("bad \\u escape");
              }
            }
            // The writer only escapes control characters this way.
            out += v < 0x80 ? static_cast<char>(v) : '?';
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    if (p >= end) fail("unterminated string");
    ++p; // closing quote
    return out;
  }

  /// JSON number characters only, so strtod never sees "inf", "nan" or
  /// hex floats.
  static bool number_char(char c) {
    return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
           c == 'e' || c == 'E';
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    if (p >= end) fail("unexpected end of input");
    Json v;
    const char c = *p;
    if (c == '{') {
      ++p;
      v.type = Json::Type::object;
      if (!eat('}')) {
        do {
          std::string key = parse_string();
          expect(':', "expected ':' in object");
          v.obj.emplace_back(std::move(key), parse_value(depth + 1));
        } while (eat(','));
        expect('}', "expected '}'");
      }
    } else if (c == '[') {
      ++p;
      v.type = Json::Type::array;
      if (!eat(']')) {
        do {
          v.arr.push_back(parse_value(depth + 1));
        } while (eat(','));
        expect(']', "expected ']'");
      }
    } else if (c == '"') {
      v.type = Json::Type::string;
      v.s = parse_string();
    } else if (c == 't' && end - p >= 4 && std::memcmp(p, "true", 4) == 0) {
      v.type = Json::Type::boolean;
      p += 4;
    } else if (c == 'f' && end - p >= 5 && std::memcmp(p, "false", 5) == 0) {
      v.type = Json::Type::boolean;
      p += 5;
    } else if (c == 'n' && end - p >= 4 && std::memcmp(p, "null", 4) == 0) {
      p += 4;
    } else {
      const char* start = p;
      while (p < end && number_char(*p)) ++p;
      const std::string token(start, p);
      char* token_end = nullptr;
      v.type = Json::Type::number;
      v.n = std::strtod(token.c_str(), &token_end);
      if (token.empty() || token_end != token.c_str() + token.size()) {
        fail("bad number");
      }
    }
    return v;
  }
};

std::string str_of(const Json* j) {
  return j != nullptr && j->type == Json::Type::string ? j->s : std::string();
}

/// A `ts` or `dur` in microseconds, as integer nanoseconds.  Reads back
/// exactly what chrome_json() wrote for values below 2^53 ns (~104 days).
std::uint64_t ns_of(const Json* j, const char* key, const std::string& path) {
  if (j == nullptr || j->type != Json::Type::number) {
    malformed(path, std::string("missing ") + key);
  }
  const double ns = j->n * 1e3;
  if (!(ns >= 0.0 && ns <= kMaxNs)) {
    malformed(path, std::string(key) + " negative, non-finite or too large");
  }
  return static_cast<std::uint64_t>(std::llround(ns));
}

std::uint32_t tid_of(const Json* j, const std::string& path) {
  if (j == nullptr || j->type != Json::Type::number) {
    malformed(path, "missing tid");
  }
  if (!(j->n >= 0.0 && j->n <= 4294967295.0) || j->n != std::floor(j->n)) {
    malformed(path, "tid is not a 32-bit thread id");
  }
  return static_cast<std::uint32_t>(j->n);
}

std::uint64_t epoch_of(const Json& root, const std::string& path) {
  const Json* other = root.get("otherData");
  const Json* epoch =
      other != nullptr ? other->get("epoch_unix_ns") : nullptr;
  if (epoch == nullptr || epoch->type != Json::Type::string ||
      epoch->s.empty()) {
    malformed(path, "missing otherData.epoch_unix_ns");
  }
  std::uint64_t v = 0;
  for (const char c : epoch->s) {
    const unsigned d = static_cast<unsigned char>(c) - unsigned{'0'};
    if (d > 9 || v > (UINT64_MAX - d) / 10) {
      malformed(path, "epoch_unix_ns is not a 64-bit decimal");
    }
    v = v * 10 + d;
  }
  return v;
}

} // namespace

TraceFile read_chrome_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw io_error("trace: cannot open " + path);
  const std::string text((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
  if (f.bad()) throw io_error("trace: failed reading " + path);

  JsonParser parser{text.data(), text.data() + text.size(), path};
  const Json root = parser.parse_value(0);
  parser.skip_ws();
  if (parser.p != parser.end) parser.fail("trailing garbage");
  if (root.type != Json::Type::object) {
    malformed(path, "top level is not an object");
  }
  const Json* events = root.get("traceEvents");
  if (events == nullptr || events->type != Json::Type::array) {
    malformed(path, "missing traceEvents array");
  }
  TraceFile out;
  out.epoch_unix_ns = epoch_of(root, path);
  std::map<std::uint32_t, std::string> names;
  for (const Json& ev : events->arr) {
    if (ev.type != Json::Type::object) {
      malformed(path, "event is not an object");
    }
    const std::string ph = str_of(ev.get("ph"));
    const std::uint32_t tid = tid_of(ev.get("tid"), path);
    const Json* args = ev.get("args");
    if (ph == "M") {
      if (args != nullptr) names[tid] = str_of(args->get("name"));
      continue;
    }
    TraceEvent e;
    if (ph == "X") {
      e.kind = Kind::span;
      e.dur_ns = ns_of(ev.get("dur"), "dur", path);
      if (args != nullptr) e.detail = str_of(args->get("detail"));
    } else if (ph == "i") {
      e.kind = Kind::instant;
      if (args != nullptr) e.detail = str_of(args->get("detail"));
    } else if (ph == "C") {
      e.kind = Kind::counter;
      const Json* value = args != nullptr ? args->get("value") : nullptr;
      if (value != nullptr && value->type == Json::Type::number) {
        e.value = value->n;
      }
    } else {
      continue; // phases the writer never emits
    }
    e.tid = tid;
    e.ts_ns = ns_of(ev.get("ts"), "ts", path);
    e.name = str_of(ev.get("name"));
    e.cat = str_of(ev.get("cat"));
    out.events.push_back(std::move(e));
  }
  for (auto& e : out.events) {
    const auto it = names.find(e.tid);
    e.thread_name =
        it != names.end() ? it->second : "thread " + std::to_string(e.tid);
  }
  return out;
}

TraceFile merge(const std::vector<TraceFile>& files) {
  TraceFile out;
  for (const auto& f : files) {
    if (f.epoch_unix_ns != 0 &&
        (out.epoch_unix_ns == 0 || f.epoch_unix_ns < out.epoch_unix_ns)) {
      out.epoch_unix_ns = f.epoch_unix_ns;
    }
  }
  std::map<std::pair<std::size_t, std::uint32_t>, std::uint32_t> tids;
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const std::uint64_t epoch = files[fi].epoch_unix_ns;
    const std::uint64_t shift = epoch == 0 ? 0 : epoch - out.epoch_unix_ns;
    for (const auto& e : files[fi].events) {
      const auto [it, inserted] = tids.emplace(
          std::make_pair(fi, e.tid), static_cast<std::uint32_t>(tids.size()));
      (void)inserted;
      TraceEvent copy = e;
      copy.ts_ns += shift;
      copy.tid = it->second;
      out.events.push_back(std::move(copy));
    }
  }
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

} // namespace kronlab::trace
