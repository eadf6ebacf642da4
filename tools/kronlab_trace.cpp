// kronlab_trace — inspect, convert, and compare kronlab trace files.
//
//   convert [-o OUT.json] IN...   merge trace files onto one clock-aligned
//                                 timeline and write Chrome trace JSON
//                                 (load in Perfetto / chrome://tracing)
//   summary IN                    per-category span table (count, total,
//                                 self time) plus the critical path
//   diff A B                      per-span-name totals of B against A
//
// Every command accepts both the compact binary format ("KRNLTRC1",
// written by --trace dirs and per-rank dist runs) and the Chrome JSON the
// library itself exports — the JSON reader understands exactly the subset
// chrome_json() emits.
//
// Exit codes: 0 ok, 2 usage, 3 unreadable file, 4 unparsable content.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "kronlab/common/error.hpp"
#include "kronlab/common/registry.hpp"
#include "kronlab/obs/trace.hpp"

using kronlab::trace::Kind;
using kronlab::trace::TraceEvent;
using kronlab::trace::TraceFile;

namespace {

[[noreturn]] void usage(int code) {
  // kronlab-analyze: allow(obs-log) usage text is CLI output for the
  // invoking human, not an operational event — it stays printf-family.
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: kronlab_trace convert [-o OUT.json] IN...\n"
               "       kronlab_trace summary IN\n"
               "       kronlab_trace diff A B\n\n"
               "IN/A/B are KRNLTRC1 binaries (.trace/.bin) or the Chrome\n"
               "trace JSON kronlab writes.\n");
  std::exit(code);
}

/// Failure funnel: message to the terminal, then exit.  Exit codes:
/// 0 ok, 2 usage, 3 unreadable file, 4 unparsable content.
[[noreturn]] void die(int code, const std::string& msg) {
  // kronlab-analyze: allow(obs-log) the CLI's failure funnel.
  std::fprintf(stderr, "kronlab_trace: %s\n", msg.c_str());
  std::exit(code);
}

// ---------------------------------------------------------------------------
// Minimal JSON reader — just enough for the Chrome traces we emit.

struct Json {
  enum class Type { null, boolean, number, string, array, object } type =
      Type::null;
  bool b = false;
  double n = 0.0;
  std::string s;
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;

  [[nodiscard]] const Json* get(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

struct JsonParser {
  const char* p;
  const char* end;

  [[noreturn]] void fail(const char* what) const {
    throw kronlab::io_error(std::string("trace JSON: ") + what);
  }

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
            // Our writer only escapes control characters this way.
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

  Json parse_value() {
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
          v.obj.emplace_back(std::move(key), parse_value());
        } while (eat(','));
        expect('}', "expected '}'");
      }
    } else if (c == '[') {
      ++p;
      v.type = Json::Type::array;
      if (!eat(']')) {
        do {
          v.arr.push_back(parse_value());
        } while (eat(','));
        expect(']', "expected ']'");
      }
    } else if (c == '"') {
      v.type = Json::Type::string;
      v.s = parse_string();
    } else if (c == 't' && end - p >= 4 && std::memcmp(p, "true", 4) == 0) {
      v.type = Json::Type::boolean;
      v.b = true;
      p += 4;
    } else if (c == 'f' && end - p >= 5 && std::memcmp(p, "false", 5) == 0) {
      v.type = Json::Type::boolean;
      p += 5;
    } else if (c == 'n' && end - p >= 4 && std::memcmp(p, "null", 4) == 0) {
      p += 4;
    } else {
      char* num_end = nullptr;
      v.type = Json::Type::number;
      v.n = std::strtod(p, &num_end);
      if (num_end == p || num_end > end) fail("bad number");
      p = num_end;
    }
    return v;
  }
};

Json parse_json(const std::string& text) {
  JsonParser parser{text.data(), text.data() + text.size()};
  Json v = parser.parse_value();
  parser.skip_ws();
  if (parser.p != parser.end) parser.fail("trailing garbage");
  return v;
}

/// Decode the Chrome trace JSON chrome_json() writes back into events.
TraceFile from_chrome_json(const std::string& text) {
  const Json root = parse_json(text);
  if (root.type != Json::Type::object) {
    throw kronlab::io_error("trace JSON: top level is not an object");
  }
  const Json* events = root.get("traceEvents");
  if (events == nullptr || events->type != Json::Type::array) {
    throw kronlab::io_error("trace JSON: missing traceEvents array");
  }
  TraceFile out;
  if (const Json* other = root.get("otherData")) {
    if (const Json* epoch = other->get("epoch_unix_ns")) {
      out.epoch_unix_ns = std::strtoull(epoch->s.c_str(), nullptr, 10);
    }
  }
  std::map<std::uint32_t, std::string> names;
  const auto str_of = [](const Json* j) {
    return j != nullptr && j->type == Json::Type::string ? j->s
                                                         : std::string();
  };
  const auto num_of = [](const Json* j) {
    return j != nullptr && j->type == Json::Type::number ? j->n : 0.0;
  };
  for (const Json& ev : events->arr) {
    const std::string ph = str_of(ev.get("ph"));
    const auto tid = static_cast<std::uint32_t>(num_of(ev.get("tid")));
    if (ph == "M") {
      if (const Json* args = ev.get("args")) {
        names[tid] = str_of(args->get("name"));
      }
      continue;
    }
    TraceEvent e;
    e.tid = tid;
    e.ts_ns = static_cast<std::uint64_t>(
        std::llround(num_of(ev.get("ts")) * 1e3));
    e.name = str_of(ev.get("name"));
    e.cat = str_of(ev.get("cat"));
    const Json* args = ev.get("args");
    if (ph == "X") {
      e.kind = Kind::span;
      e.dur_ns = static_cast<std::uint64_t>(
          std::llround(num_of(ev.get("dur")) * 1e3));
      if (args) e.detail = str_of(args->get("detail"));
    } else if (ph == "i") {
      e.kind = Kind::instant;
      if (args) e.detail = str_of(args->get("detail"));
    } else if (ph == "C") {
      e.kind = Kind::counter;
      if (args) e.value = num_of(args->get("value"));
    } else {
      continue; // phases we never write
    }
    out.events.push_back(std::move(e));
  }
  for (auto& e : out.events) {
    const auto it = names.find(e.tid);
    e.thread_name = it != names.end()
                        ? it->second
                        : "thread " + std::to_string(e.tid);
  }
  return out;
}

/// Load one trace of either format, sniffing the binary magic.
TraceFile load(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    die(3, "cannot open " + path);
  }
  char magic[8] = {};
  f.read(magic, sizeof magic);
  f.close();
  try {
    if (std::memcmp(magic, kronlab::magic::kTrc1, 8) == 0) {
      return kronlab::trace::read_binary_file(path);
    }
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return from_chrome_json(text.str());
  } catch (const std::exception& e) {
    die(4, path + ": " + e.what());
  }
}

std::string fmt_ms(std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f ms",
                static_cast<double>(ns) / 1e6);
  return buf;
}

// ---------------------------------------------------------------------------
// convert

int cmd_convert(const std::vector<std::string>& args) {
  std::string out_path;
  std::vector<std::string> inputs;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-o") {
      if (i + 1 >= args.size()) usage(2);
      out_path = args[++i];
    } else {
      inputs.push_back(args[i]);
    }
  }
  if (inputs.empty()) usage(2);
  if (out_path.empty()) {
    if (inputs.size() == 1) {
      out_path = inputs.front();
      const auto dot = out_path.find_last_of('.');
      if (dot != std::string::npos) out_path.resize(dot);
      out_path += ".json";
    } else {
      out_path = "merged_trace.json";
    }
  }
  std::vector<TraceFile> files;
  files.reserve(inputs.size());
  for (const auto& in : inputs) files.push_back(load(in));
  std::uint64_t epoch = files.front().epoch_unix_ns;
  for (const auto& f : files) {
    epoch = epoch == 0 ? f.epoch_unix_ns : std::min(epoch, f.epoch_unix_ns);
  }
  const auto merged = kronlab::trace::merge(files);
  try {
    kronlab::trace::write_chrome_file(out_path, merged, epoch);
  } catch (const std::exception& e) {
    die(3, e.what());
  }
  std::printf("wrote %s (%zu events from %zu file%s)\n", out_path.c_str(),
              merged.size(), files.size(), files.size() == 1 ? "" : "s");
  return 0;
}

// ---------------------------------------------------------------------------
// summary

struct SpanRef {
  const TraceEvent* ev;
  std::uint64_t self_ns;
};

struct CatStats {
  std::uint64_t spans = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

/// Per-span self time: a span's duration minus the durations of spans
/// nested directly inside it on the same thread.
std::vector<SpanRef> compute_self_times(const std::vector<TraceEvent>& evs) {
  // Parents sort before their children: earlier start first, and at equal
  // starts the longer (enclosing) span first.
  std::map<std::uint32_t, std::vector<const TraceEvent*>> by_tid;
  for (const auto& e : evs) {
    if (e.kind == Kind::span) by_tid[e.tid].push_back(&e);
  }
  std::vector<SpanRef> out;
  for (auto& [tid, spans] : by_tid) {
    std::stable_sort(spans.begin(), spans.end(),
                     [](const TraceEvent* a, const TraceEvent* b) {
                       if (a->ts_ns != b->ts_ns) return a->ts_ns < b->ts_ns;
                       return a->dur_ns > b->dur_ns;
                     });
    std::vector<std::size_t> stack; // indices into `out`
    for (const TraceEvent* e : spans) {
      while (!stack.empty()) {
        const TraceEvent* top = out[stack.back()].ev;
        if (top->ts_ns + top->dur_ns >= e->ts_ns + e->dur_ns &&
            top->ts_ns <= e->ts_ns) {
          break; // still inside the enclosing span
        }
        stack.pop_back();
      }
      if (!stack.empty()) {
        auto& parent = out[stack.back()];
        parent.self_ns -= std::min(parent.self_ns, e->dur_ns);
      }
      out.push_back({e, e->dur_ns});
      stack.push_back(out.size() - 1);
    }
  }
  return out;
}

/// Longest top-level span, then its longest direct child, and so on.
std::vector<const TraceEvent*> critical_path(
    const std::vector<TraceEvent>& evs) {
  std::map<std::uint32_t, std::vector<const TraceEvent*>> by_tid;
  for (const auto& e : evs) {
    if (e.kind == Kind::span) by_tid[e.tid].push_back(&e);
  }
  const TraceEvent* root = nullptr;
  for (const auto& [tid, spans] : by_tid) {
    for (const TraceEvent* e : spans) {
      if (root == nullptr || e->dur_ns > root->dur_ns) root = e;
    }
  }
  std::vector<const TraceEvent*> path;
  while (root != nullptr) {
    path.push_back(root);
    const TraceEvent* best = nullptr;
    for (const TraceEvent* e : by_tid[root->tid]) {
      if (e == root || e->ts_ns < root->ts_ns ||
          e->ts_ns + e->dur_ns > root->ts_ns + root->dur_ns ||
          e->dur_ns >= root->dur_ns) {
        continue;
      }
      // Direct or transitive child; the longest one is on the path either
      // way since we recurse into it next.
      if (best == nullptr || e->dur_ns > best->dur_ns) best = e;
    }
    if (best != nullptr && path.size() >= 32) best = nullptr; // cycle guard
    root = best;
  }
  return path;
}

int cmd_summary(const std::vector<std::string>& args) {
  if (args.size() != 1) usage(2);
  const TraceFile tf = load(args.front());
  std::size_t instants = 0, counters = 0;
  for (const auto& e : tf.events) {
    instants += e.kind == Kind::instant ? 1 : 0;
    counters += e.kind == Kind::counter ? 1 : 0;
  }
  const auto spans = compute_self_times(tf.events);
  std::map<std::string, CatStats> cats;
  for (const auto& s : spans) {
    auto& c = cats[s.ev->cat];
    ++c.spans;
    c.total_ns += s.ev->dur_ns;
    c.self_ns += s.self_ns;
  }
  std::printf("%s: %zu events (%zu spans, %zu instants, %zu counters)\n\n",
              args.front().c_str(), tf.events.size(), spans.size(),
              instants, counters);
  std::printf("%-12s %8s %14s %14s\n", "category", "spans", "total",
              "self");
  std::vector<std::pair<std::string, CatStats>> rows(cats.begin(),
                                                     cats.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ns > b.second.self_ns;
  });
  for (const auto& [cat, st] : rows) {
    std::printf("%-12s %8llu %14s %14s\n", cat.c_str(),
                static_cast<unsigned long long>(st.spans),
                fmt_ms(st.total_ns).c_str(), fmt_ms(st.self_ns).c_str());
  }
  // Registry cross-reference: the bench harness (and any caller of
  // trace::counter with cat "stats") exports obs/stats registry values
  // as counter events; surface their final values next to the timing
  // table so one file answers "how long" and "how much".
  std::map<std::string, double> registry;
  for (const auto& e : tf.events) {
    if (e.kind == Kind::counter && e.cat == "stats") {
      registry[e.name] = e.value; // last write wins
    }
  }
  if (!registry.empty()) {
    std::printf("\nregistry counters (obs/stats):\n");
    for (const auto& [name, value] : registry) {
      std::printf("  %-40s %.3f\n", name.c_str(), value);
    }
  }
  const auto path = critical_path(tf.events);
  if (!path.empty()) {
    std::printf("\ncritical path (longest span, descending):\n");
    std::string indent;
    for (const TraceEvent* e : path) {
      std::printf("  %s%s/%s  %s\n", indent.c_str(), e->cat.c_str(),
                  e->name.c_str(), fmt_ms(e->dur_ns).c_str());
      indent += "  ";
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// diff

int cmd_diff(const std::vector<std::string>& args) {
  if (args.size() != 2) usage(2);
  const TraceFile a = load(args[0]);
  const TraceFile b = load(args[1]);
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
  };
  const auto aggregate = [](const TraceFile& tf) {
    std::map<std::string, Agg> out;
    for (const auto& e : tf.events) {
      if (e.kind != Kind::span) continue;
      auto& agg = out[e.cat + "/" + e.name];
      ++agg.count;
      agg.total_ns += e.dur_ns;
    }
    return out;
  };
  const auto aa = aggregate(a);
  const auto bb = aggregate(b);
  std::map<std::string, std::pair<Agg, Agg>> joined;
  for (const auto& [key, agg] : aa) joined[key].first = agg;
  for (const auto& [key, agg] : bb) joined[key].second = agg;
  std::vector<std::pair<std::string, std::pair<Agg, Agg>>> rows(
      joined.begin(), joined.end());
  std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
    const auto dx = std::llabs(static_cast<long long>(x.second.second.total_ns) -
                               static_cast<long long>(x.second.first.total_ns));
    const auto dy = std::llabs(static_cast<long long>(y.second.second.total_ns) -
                               static_cast<long long>(y.second.first.total_ns));
    return dx > dy;
  });
  std::printf("%-40s %14s %14s %10s\n", "span", "A total", "B total",
              "B/A");
  for (const auto& [key, pair] : rows) {
    const auto& [x, y] = pair;
    const double ratio =
        x.total_ns > 0
            ? static_cast<double>(y.total_ns) /
                  static_cast<double>(x.total_ns)
            : 0.0;
    std::printf("%-40s %14s %14s %9.2fx\n", key.c_str(),
                fmt_ms(x.total_ns).c_str(), fmt_ms(y.total_ns).c_str(),
                ratio);
  }
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(2);
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (cmd == "--help" || cmd == "-h") usage(0);
  if (cmd == "convert") return cmd_convert(args);
  if (cmd == "summary") return cmd_summary(args);
  if (cmd == "diff") return cmd_diff(args);
  // kronlab-analyze: allow(obs-log) a CLI diagnostic for the terminal.
  std::fprintf(stderr, "kronlab_trace: unknown command '%s'\n", cmd.c_str());
  usage(2);
}
