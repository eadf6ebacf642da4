// perfbench/src/trace.cpp — see trace.hpp.

#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench::trace {
namespace {

struct Buffer {
  std::mutex mu;
  std::vector<Record> spans;
  std::uint32_t thread = 0;
};

std::atomic<bool> g_enabled{false};
std::atomic<SpanId> g_next_id{1};
std::mutex g_buffers_mu;
std::vector<std::shared_ptr<Buffer>> g_buffers; // guarded by g_buffers_mu

thread_local std::shared_ptr<Buffer> t_buffer;
thread_local std::vector<SpanId> t_open;

Buffer& local_buffer() {
  if (!t_buffer) {
    t_buffer = std::make_shared<Buffer>();
    const std::lock_guard<std::mutex> lock(g_buffers_mu);
    t_buffer->thread = static_cast<std::uint32_t>(g_buffers.size());
    g_buffers.push_back(t_buffer);
  }
  return *t_buffer;
}

} // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Span::Span(const char* name) : Span(name, current()) {}

Span::Span(const char* name, SpanId parent) {
  if (!enabled()) return;
  rec_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = parent;
  rec_.name = name;
  t_open.push_back(rec_.id);
  rec_.start_ns = now_ns();
}

Span::~Span() {
  if (rec_.id == 0) return;
  rec_.end_ns = now_ns();
  t_open.pop_back();
  Buffer& buf = local_buffer();
  rec_.thread = buf.thread;
  const std::lock_guard<std::mutex> lock(buf.mu);
  buf.spans.push_back(rec_);
}

SpanId current() { return t_open.empty() ? 0 : t_open.back(); }

std::vector<Record> collect() {
  std::vector<Record> all;
  const std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buf : g_buffers) {
    const std::lock_guard<std::mutex> buf_lock(buf->mu);
    all.insert(all.end(), buf->spans.begin(), buf->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Record& a, const Record& b) {
    return a.start_ns < b.start_ns;
  });
  return all;
}

double mean_ms(const std::map<std::string, NameStats>& names,
               const std::string& name) {
  const auto it = names.find(name);
  if (it == names.end() || it->second.calls == 0) return 0;
  return it->second.total_ns / static_cast<double>(it->second.calls) * 1e-6;
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::map<std::string, NameStats> summarize(const std::vector<Record>& spans,
                                            SpanId root) {
  std::unordered_map<SpanId, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    children[spans[i].parent].push_back(i);
  }
  // Self time of span i: its duration minus the union of its children's
  // intervals, clipped to it.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
  const auto self_ns = [&](std::size_t i) {
    const Record& s = spans[i];
    cover.clear();
    if (const auto kids = children.find(s.id); kids != children.end()) {
      for (const std::size_t k : kids->second) {
        const auto lo = std::max(spans[k].start_ns, s.start_ns);
        const auto hi = std::min(spans[k].end_ns, s.end_ns);
        if (lo < hi) cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    std::uint64_t covered = 0, reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const auto from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    return static_cast<double>(s.end_ns - s.start_ns - covered);
  };

  std::map<std::string, NameStats> out;
  std::vector<SpanId> todo{root};
  while (!todo.empty()) {
    const auto it = children.find(todo.back());
    todo.pop_back();
    if (it == children.end()) continue;
    // Siblings are in start order (collect() sorts).  Same-name siblings
    // that overlap ran in parallel (the ranks of one dist call): they
    // count once, by the slowest, so times stay wall-clock.
    struct Group {
      std::uint64_t end = 0;
      double dur = 0, self = 0; // of the slowest member so far
    };
    std::map<std::string, Group> groups;
    for (const std::size_t i : it->second) {
      const Record& s = spans[i];
      todo.push_back(s.id);
      const auto dur = static_cast<double>(s.end_ns - s.start_ns);
      const double self = self_ns(i);
      auto& st = out[s.name];
      auto& g = groups[s.name];
      if (s.start_ns >= g.end) {
        g = {s.end_ns, 0, 0}; // a new call, not a parallel sibling
        ++st.calls;
      }
      if (dur > g.dur) {
        st.total_ns += dur - g.dur;
        st.self_ns += self - g.self;
        g.dur = dur;
        g.self = self;
      }
      g.end = std::max(g.end, s.end_ns);
    }
  }
  return out;
}

void print_table(const std::vector<Record>& spans, SpanId root,
                 const std::string& title) {
  const auto names = summarize(spans, root);
  double op_ns = 0;
  std::uint64_t ops = 0;
  std::map<std::string, double> layer_self;
  for (const auto& [name, st] : names) {
    if (layer_of(name) == "op") {
      op_ns += st.total_ns;
      ops += st.calls;
    }
    layer_self[layer_of(name)] += st.self_ns;
  }
  // Shares are of the summed op time; a root without ops (layer probes)
  // takes its own duration as the base.
  double base = op_ns;
  for (const auto& s : spans) {
    if (ops == 0 && s.id == root) {
      base = static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  base = std::max(base, 1.0);
  const double per_op = ops > 0 ? 1.0 / static_cast<double>(ops) : 1.0;
  std::printf("\n== where the time goes: %s (%llu ops, %.3f ms/op) ==\n",
              title.c_str(), static_cast<unsigned long long>(ops),
              op_ns * per_op * 1e-6);
  std::printf("%-34s %10s %14s %14s %8s\n", "layer / span", "calls",
              "total ms/op", "self ms/op", "share");
  for (const auto& [layer, self] : layer_self) {
    std::printf("%-34s %10s %14s %14.4f %7.1f%%\n",
                (layer == "op" ? "op (benchmark checks)" : layer).c_str(),
                "", "", self * per_op * 1e-6, self / base * 100.0);
  }
  std::printf("%s\n", std::string(84, '-').c_str());
  for (const auto& [name, st] : names) {
    std::printf("  %-32s %10llu %14.4f %14.4f %7.1f%%\n", name.c_str(),
                static_cast<unsigned long long>(st.calls),
                st.total_ns * per_op * 1e-6, st.self_ns * per_op * 1e-6,
                st.self_ns / base * 100.0);
  }
}

bool write_json(const std::vector<Record>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::uint64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::map<std::string, std::size_t> written;
  std::size_t dropped = 0;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  const char* sep = "";
  for (const Record& s : spans) {
    if (++written[s.name] > kMaxSpansPerName) {
      ++dropped;
      continue;
    }
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu,\"request\":%llu}}",
                 sep, s.name, layer_of(s.name).c_str(), s.thread,
                 static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
    sep = ",";
  }
  std::fprintf(f, "\n],\"otherData\":{\"dropped_spans\":%zu}}\n", dropped);
  return std::fclose(f) == 0;
}

} // namespace perfbench::trace
