// kronlab/obs/log.cpp — see log.hpp for the contract.

#include "kronlab/obs/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#include "kronlab/common/registry.hpp"
#include "kronlab/common/sync.hpp"

namespace kronlab::obs {
namespace {

LogLevel env_log_level() {
  const char* v = std::getenv(env::kLog);
  LogLevel lvl = LogLevel::info;
  if (v != nullptr) (void)parse_log_level(v, lvl);
  return lvl;
}

std::atomic<int> g_level{static_cast<int>(env_log_level())};

struct Writer {
  Mutex mu;
  std::function<void(std::string_view)> sink GUARDED_BY(mu);

  static Writer& get() {
    // kronlab-analyze: allow(naked-new) leaked so late-exiting threads
    // can still log during teardown.
    static Writer* w = new Writer;
    return *w;
  }

  void emit(std::string_view line) {
    MutexLock lock(mu);
    if (sink) {
      sink(line);
      return;
    }
    // kronlab-analyze: allow(obs-log) the default sink: one whole line
    // to stderr.  The single fwrite keeps the line atomic even if
    // something else writes to fd 2.
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fputc('\n', stderr);
  }
};

/// RFC3339 UTC timestamp with millisecond precision.
void append_timestamp(std::string& out) {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(ms));
  out += buf;
}

bool needs_quoting(std::string_view v) {
  if (v.empty()) return true;
  for (char c : v) {
    if (c == ' ' || c == '"' || c == '=' || c == '\\' || c == '\n' ||
        static_cast<unsigned char>(c) < 0x20) {
      return true;
    }
  }
  return false;
}

void append_value(std::string& out, std::string_view v) {
  if (!needs_quoting(v)) {
    out += v;
    return;
  }
  out += '"';
  for (char c : v) {
    switch (c) {
    case '"': out += "\\\""; break;
    case '\\': out += "\\\\"; break;
    case '\n': out += "\\n"; break;
    default: out += c;
    }
  }
  out += '"';
}

} // namespace

LogLevel log_level() {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

void set_log_level(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

bool parse_log_level(std::string_view text, LogLevel& out) {
  if (text == "debug") out = LogLevel::debug;
  else if (text == "info") out = LogLevel::info;
  else if (text == "warn") out = LogLevel::warn;
  else if (text == "error") out = LogLevel::error;
  else if (text == "off") out = LogLevel::off;
  else return false;
  return true;
}

const char* log_level_name(LogLevel level) {
  switch (level) {
  case LogLevel::debug: return "debug";
  case LogLevel::info: return "info";
  case LogLevel::warn: return "warn";
  case LogLevel::error: return "error";
  case LogLevel::off: return "off";
  }
  return "?";
}

bool log_enabled(LogLevel level) {
  return static_cast<int>(level) >= g_level.load(std::memory_order_relaxed) &&
         level != LogLevel::off;
}

void set_log_sink(std::function<void(std::string_view)> sink) {
  Writer& w = Writer::get();
  MutexLock lock(w.mu);
  w.sink = std::move(sink);
}

LogEvent::LogEvent(LogLevel level, const char* subsys, const char* event)
    : active_(log_enabled(level)) {
  if (!active_) return;
  line_.reserve(128);
  line_ += "ts=";
  append_timestamp(line_);
  line_ += " level=";
  line_ += log_level_name(level);
  line_ += " subsys=";
  append_value(line_, subsys);
  line_ += " event=";
  append_value(line_, event);
}

LogEvent::~LogEvent() {
  if (active_) Writer::get().emit(line_);
}

LogEvent& LogEvent::field(const char* key, std::string_view value) {
  if (!active_) return *this;
  line_ += ' ';
  line_ += key;
  line_ += '=';
  append_value(line_, value);
  return *this;
}

LogEvent& LogEvent::field(const char* key, std::int64_t value) {
  if (!active_) return *this;
  return field(key, std::string_view(std::to_string(value)));
}

LogEvent& LogEvent::field(const char* key, std::uint64_t value) {
  if (!active_) return *this;
  return field(key, std::string_view(std::to_string(value)));
}

LogEvent& LogEvent::field(const char* key, double value) {
  if (!active_) return *this;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", value);
  return field(key, std::string_view(buf));
}

LogEvent log(LogLevel level, const char* subsys, const char* event) {
  // Guaranteed elision: the prvalue is constructed straight into the
  // caller's temporary, so the deleted copy is never needed.
  return LogEvent(level, subsys, event);
}

} // namespace kronlab::obs
