#include "harness/harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "kronlab/obs/stats.hpp"
#include "kronlab/obs/trace.hpp"

namespace kronlab::bench {

namespace {

[[noreturn]] void usage_error(const char* arg) {
  std::fprintf(stderr,
               "unknown bench argument '%s'\n"
               "usage: bench_* [--quick] [--reps N] [--json PATH] "
               "[--no-json] [--trace PATH]\n",
               arg);
  std::exit(2);
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

/// %.9g keeps full double precision while staying JSON-parsable (no
/// trailing garbage, never NaN/Inf — callers must record finite values).
std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

} // namespace

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quick") == 0) {
      opt.quick = true;
    } else if (std::strcmp(arg, "--no-json") == 0) {
      opt.no_json = true;
    } else if (std::strcmp(arg, "--reps") == 0 && i + 1 < argc) {
      opt.reps = std::atoi(argv[++i]);
      if (opt.reps <= 0) usage_error(arg);
    } else if (std::strcmp(arg, "--json") == 0 && i + 1 < argc) {
      opt.json_path = argv[++i];
    } else if (std::strcmp(arg, "--trace") == 0 && i + 1 < argc) {
      opt.trace_path = argv[++i];
    } else {
      usage_error(arg);
    }
  }
  return opt;
}

Harness::Harness(std::string name, Options opt)
    : name_(std::move(name)), opt_(std::move(opt)) {
  // Start every bench from a clean telemetry registry so the folded
  // counters/percentiles describe this run, not process history.
  obs::stats_reset();
  if (!opt_.trace_path.empty()) {
    trace::set_enabled(true);
    trace::set_thread_name("main");
    const auto& p = opt_.trace_path;
    const bool json_only =
        p.size() > 5 && p.compare(p.size() - 5, 5, ".json") == 0;
    if (!json_only) {
      trace_dir_ = p;
      std::error_code ec;
      std::filesystem::create_directories(trace_dir_, ec);
      if (ec) {
        std::fprintf(stderr, "bench harness: cannot create trace dir %s\n",
                     trace_dir_.c_str());
        std::exit(3);
      }
    }
  }
}

Harness::~Harness() {
  // Dump even if the bench is mid-exit via an uncaught error path?  No:
  // a partially run bench must not masquerade as a result, so only the
  // normal return path (stack unwinding without exception) writes.
  if (std::uncaught_exceptions() == 0) write();
}

int Harness::reps_for(int default_reps) const {
  if (opt_.reps > 0) return opt_.reps;
  return opt_.quick ? 1 : default_reps;
}

TimingStats Harness::record_samples(const std::string& section,
                                    const std::vector<double>& samples) {
  TimingStats st;
  st.reps = static_cast<int>(samples.size());
  if (samples.empty()) return st;
  st.min_seconds = samples.front();
  st.max_seconds = samples.front();
  double sum = 0.0;
  for (const double s : samples) {
    sum += s;
    st.min_seconds = std::min(st.min_seconds, s);
    st.max_seconds = std::max(st.max_seconds, s);
  }
  st.mean_seconds = sum / static_cast<double>(samples.size());
  double var = 0.0;
  for (const double s : samples) {
    var += (s - st.mean_seconds) * (s - st.mean_seconds);
  }
  st.stddev_seconds =
      std::sqrt(var / static_cast<double>(samples.size()));
  timings_.emplace_back(section, st);
  return st;
}

TimingStats Harness::time_value(const std::string& section, double seconds) {
  return record_samples(section, {seconds});
}

void Harness::fold_obs_stats() {
  const auto snap = obs::stats_snapshot();
  for (const auto& [name, value] : snap.counters) {
    if (value == 0) continue;
    // emplace: a bench's explicit counter() under the same name wins.
    counters_.emplace(name, static_cast<double>(value));
  }
  for (const auto& [name, hist] : snap.histograms) {
    if (hist.count == 0) continue;
    counters_.emplace(name + ".count", static_cast<double>(hist.count));
    counters_.emplace(name + ".p50_ms",
                      static_cast<double>(hist.quantile(0.5)) / 1e6);
    counters_.emplace(name + ".p99_ms",
                      static_cast<double>(hist.quantile(0.99)) / 1e6);
  }
  if (opt_.trace_path.empty()) return;
  for (const auto& [name, value] : snap.counters) {
    if (value == 0) continue;
    trace::counter("stats", trace::intern(name),
                   static_cast<double>(value));
  }
  for (const auto& [name, hist] : snap.histograms) {
    if (hist.count == 0) continue;
    trace::counter("stats", trace::intern(name + ".p50_ms"),
                   static_cast<double>(hist.quantile(0.5)) / 1e6);
    trace::counter("stats", trace::intern(name + ".p99_ms"),
                   static_cast<double>(hist.quantile(0.99)) / 1e6);
  }
}

void Harness::counter(const std::string& name, double value) {
  counters_[name] = value;
}

void Harness::label(const std::string& name, std::string value) {
  labels_[name] = std::move(value);
}

std::string Harness::to_json() const {
  std::string out = "{\n";
  out += "  \"schema\": \"kronlab-bench-v1\",\n";
  out += "  \"name\": \"" + json_escape(name_) + "\",\n";
  out += std::string("  \"quick\": ") + (opt_.quick ? "true" : "false") +
         ",\n";
  out += "  \"wall_seconds\": " + num(wall_.seconds()) + ",\n";
  out += "  \"peak_rss_bytes\": " + num(peak_rss_bytes()) + ",\n";

  out += "  \"timings\": [";
  for (std::size_t i = 0; i < timings_.size(); ++i) {
    const auto& [section, st] = timings_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"section\": \"" + json_escape(section) + "\"";
    out += ", \"reps\": " + std::to_string(st.reps);
    out += ", \"mean_seconds\": " + num(st.mean_seconds);
    out += ", \"min_seconds\": " + num(st.min_seconds);
    out += ", \"max_seconds\": " + num(st.max_seconds);
    out += ", \"stddev_seconds\": " + num(st.stddev_seconds) + "}";
  }
  out += timings_.empty() ? "],\n" : "\n  ],\n";

  out += "  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    out += first ? "\n" : ",\n";
    out += "    \"" + json_escape(name) + "\": " + num(value);
    first = false;
  }
  out += counters_.empty() ? "},\n" : "\n  },\n";

  out += "  \"labels\": {";
  first = true;
  for (const auto& [name, value] : labels_) {
    out += first ? "\n" : ",\n";
    out += "    \"" + json_escape(name) + "\": \"" + json_escape(value) +
           "\"";
    first = false;
  }
  out += labels_.empty() ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

void Harness::export_trace() {
  if (opt_.trace_path.empty()) return;
  const auto events = trace::snapshot();
  try {
    if (trace_dir_.empty()) {
      trace::write_chrome_file(opt_.trace_path, events);
      std::fprintf(stderr, "[bench harness] wrote %s\n",
                   opt_.trace_path.c_str());
    } else {
      const std::string bin = trace_dir_ + "/trace.bin";
      const std::string json = trace_dir_ + "/trace.json";
      trace::write_binary_file(bin, events);
      trace::write_chrome_file(json, events);
      std::fprintf(stderr, "[bench harness] wrote %s and %s\n", bin.c_str(),
                   json.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench harness: trace export failed: %s\n",
                 e.what());
    std::exit(3);
  }
  if (const auto dropped = trace::dropped_events()) {
    std::fprintf(stderr,
                 "[bench harness] trace ring overflow: %llu events lost "
                 "(raise KRONLAB_TRACE_BUFFER)\n",
                 static_cast<unsigned long long>(dropped));
  }
}

void Harness::write() {
  if (written_ || opt_.no_json) return;
  written_ = true;
  fold_obs_stats();
  export_trace();
  const std::string path =
      opt_.json_path.empty() ? "BENCH_" + name_ + ".json" : opt_.json_path;
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "bench harness: cannot write %s\n", path.c_str());
    std::exit(3);
  }
  f << to_json();
  f.close();
  std::fprintf(stderr, "[bench harness] wrote %s\n", path.c_str());
}

double peak_rss_bytes() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(ru.ru_maxrss) * 1024.0;
}

} // namespace kronlab::bench
