// kronlab_trace — inspect, convert, and compare kronlab trace files.
//
//   convert [-o OUT.json] IN...   merge trace files onto one clock-aligned
//                                 timeline and write Chrome trace JSON
//                                 (default merged_trace.json; load in
//                                 Perfetto / chrome://tracing)
//   summary IN                    per-category span table (count, total,
//                                 self time) plus the critical path
//   diff A B                      per-span-name totals of B against A
//
// Every command reads the Chrome trace JSON kronlab writes (--trace dirs,
// per-rank dist runs, and convert's own output) through
// trace::read_chrome_file.
//
// Exit codes: 0 ok, 2 usage, 3 unreadable file, 4 unparsable content.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "kronlab/common/error.hpp"
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
               "IN/A/B are the Chrome trace JSON files kronlab writes.\n");
  std::exit(code);
}

/// Failure funnel: message to the terminal, then exit.  Exit codes:
/// 0 ok, 2 usage, 3 unreadable file, 4 unparsable content.
[[noreturn]] void die(int code, const std::string& msg) {
  // kronlab-analyze: allow(obs-log) the CLI's failure funnel.
  std::fprintf(stderr, "kronlab_trace: %s\n", msg.c_str());
  std::exit(code);
}

/// Load one trace file: exit 3 when it cannot be opened, 4 when its
/// content does not parse.
TraceFile load(const std::string& path) {
  if (!std::ifstream(path)) die(3, "cannot open " + path);
  try {
    return kronlab::trace::read_chrome_file(path);
  } catch (const kronlab::io_error& e) {
    die(4, e.what());
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
  if (out_path.empty()) out_path = "merged_trace.json";
  std::vector<TraceFile> files;
  files.reserve(inputs.size());
  for (const auto& in : inputs) files.push_back(load(in));
  const TraceFile merged = kronlab::trace::merge(files);
  try {
    kronlab::trace::write_chrome_file(out_path, merged.events,
                                      merged.epoch_unix_ns);
  } catch (const std::exception& e) {
    die(3, e.what());
  }
  std::printf("wrote %s (%zu events from %zu file%s)\n", out_path.c_str(),
              merged.events.size(), files.size(),
              files.size() == 1 ? "" : "s");
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
