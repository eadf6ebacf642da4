// kronlab_served — the ground-truth oracle as a long-running daemon.
//
// Loads a BipartiteKronecker spec (same factor SPEC grammar as
// kronlab_gen) and answers serve/ protocol probes over TCP or a
// Unix-domain socket until SIGTERM/SIGINT, then drains gracefully:
// every admitted request is answered before the process exits.
//
// Operational events (startup, drain progress, the final stats summary,
// watchdog stall warnings) are structured obs/log lines on stderr,
// leveled via KRONLAB_LOG or --log.  Live telemetry is served in-band:
// `kronlab_query --stats` issues the protocol's SERVER_STATS probe and
// prints the kronlab-stats-v1 snapshot.
//
// Examples:
//   kronlab_served --left tritail:1 --right kbip:3,4 --tcp 0
//   (port 0 binds an ephemeral port; the bound port is printed to stdout
//   as "port NNNN" so scripts can read it back)
//   kronlab_served --left nonbip:20,60,7 --right prefbip:100,150,400,9
//                  --mode raw --unix /tmp/kronlab.sock --executors 4
//
// Exit codes match kronlab_gen: 2 = usage / bad spec, 3 = io,
// 4 = validation failure, 1 = anything else.

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "kronlab/kronlab.hpp"
#include "kronlab/obs/log.hpp"
#include "kronlab/obs/stats.hpp"
#include "kronlab/obs/watchdog.hpp"

using namespace kronlab;

namespace {

struct Options {
  std::string left, right;
  std::string mode = "raw";
  int tcp_port = -1; ///< >= 0: serve TCP (0 = ephemeral)
  std::string unix_path;
  serve::ServerOptions server;
  /// Stall-watchdog deadline; 0 disables the watchdog thread.
  std::size_t watchdog_ms = 1000;
};

[[noreturn]] void usage(const char* argv0, int code) {
  // kronlab-analyze: allow(obs-log) usage text is CLI output for the
  // invoking human, not an operational event — it stays printf-family.
  std::fprintf(
      code == 0 ? stdout : stderr,
      "usage: %s --left SPEC --right SPEC [--mode i|ii|raw]\n"
      "          (--tcp PORT | --unix PATH)\n"
      "          [--executors N] [--queue-depth N]\n"
      "          [--watchdog-ms N] [--log LEVEL]\n\n"
      "factor SPEC forms:\n%s\n\n"
      "--tcp PORT     listen on 127.0.0.1:PORT (0 = ephemeral; the bound\n"
      "               port is printed to stdout as 'port NNNN')\n"
      "--unix PATH    listen on a Unix-domain socket at PATH\n"
      "--executors N  request-executor threads (default %d)\n"
      "--queue-depth N  admitted-frame queue bound (default %d)\n"
      "--watchdog-ms N  stall-watchdog deadline in ms, 0 disables\n"
      "               (default 1000) — a request/exchange/commit stuck\n"
      "               longer than this logs a structured warning\n"
      "--log LEVEL    debug|info|warn|error|off (default info, or\n"
      "               KRONLAB_LOG)\n\n"
      "SIGTERM/SIGINT drain gracefully: admitted requests are answered\n"
      "and drain progress + a final summary are logged to stderr.\n"
      "Live stats: kronlab_query ... --stats (KRONLAB_STATS=0 disables\n"
      "histogram recording).\n",
      argv0, gen::graph_spec_help().c_str(),
      static_cast<int>(serve::ServerOptions{}.executors),
      static_cast<int>(serve::ServerOptions{}.queue_depth));
  std::exit(code);
}

/// CLI argument diagnostics go straight to the terminal (the logger may
/// be filtered off) and exit with the usage code.
[[noreturn]] void die_usage(const char* argv0, const std::string& msg) {
  // kronlab-analyze: allow(obs-log) a CLI diagnostic for the terminal.
  std::fprintf(stderr, "kronlab_served: %s\n", msg.c_str());
  usage(argv0, 2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        die_usage(argv[0], std::string(flag) + " requires a value");
      }
      return argv[++i];
    };
    const auto need_size = [&](const char* flag) -> std::size_t {
      const long long v =
          std::strtoll(need_value(flag).c_str(), nullptr, 10);
      if (v < 0) {
        die_usage(argv[0],
                  std::string(flag) + " requires a non-negative integer");
      }
      return static_cast<std::size_t>(v);
    };
    if (arg == "--left") {
      opt.left = need_value("--left");
    } else if (arg == "--right") {
      opt.right = need_value("--right");
    } else if (arg == "--mode") {
      opt.mode = need_value("--mode");
    } else if (arg == "--tcp") {
      opt.tcp_port =
          static_cast<int>(std::strtoll(need_value("--tcp").c_str(),
                                        nullptr, 10));
      if (opt.tcp_port < 0 || opt.tcp_port > 65535) {
        die_usage(argv[0], "--tcp requires a port in [0, 65535]");
      }
    } else if (arg == "--unix") {
      opt.unix_path = need_value("--unix");
    } else if (arg == "--executors") {
      opt.server.executors = need_size("--executors");
      if (opt.server.executors == 0) {
        die_usage(argv[0], "--executors requires at least 1");
      }
    } else if (arg == "--queue-depth") {
      opt.server.queue_depth = need_size("--queue-depth");
      if (opt.server.queue_depth == 0) {
        die_usage(argv[0], "--queue-depth requires at least 1");
      }
    } else if (arg == "--watchdog-ms") {
      opt.watchdog_ms = need_size("--watchdog-ms");
    } else if (arg == "--log") {
      obs::LogLevel level{};
      if (!obs::parse_log_level(need_value("--log"), level)) {
        die_usage(argv[0], "--log must be debug|info|warn|error|off");
      }
      obs::set_log_level(level);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0], 0);
    } else {
      die_usage(argv[0], "unknown argument: " + arg);
    }
  }
  if (opt.left.empty() || opt.right.empty()) {
    die_usage(argv[0], "--left and --right are required");
  }
  if (opt.mode != "i" && opt.mode != "ii" && opt.mode != "raw") {
    die_usage(argv[0], "--mode must be i, ii, or raw");
  }
  if ((opt.tcp_port < 0) == opt.unix_path.empty()) {
    die_usage(argv[0], "exactly one of --tcp / --unix is required");
  }
  return opt;
}

// Self-pipe shutdown plumbing: the handler must be async-signal-safe, so
// it only write()s one byte; main blocks on the read end.
int g_shutdown_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 1;
  // The result is deliberately ignored: a full pipe means a shutdown is
  // already pending, which is all this byte would say.
  [[maybe_unused]] const auto rc = write(g_shutdown_pipe[1], &byte, 1);
}

void log_summary(const serve::ServerStats& s) {
  obs::log(obs::LogLevel::info, "served", "summary")
      .field("connections_accepted", s.connections_accepted)
      .field("connections_rejected", s.connections_rejected)
      .field("frames", s.frames)
      .field("probes", s.probes)
      .field("responses", s.responses)
      .field("overloaded", s.overloaded)
      .field("malformed", s.malformed)
      .field("shed_shutdown", s.shed_shutdown);
}

} // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  try {
    const auto a = gen::parse_graph_spec(opt.left);
    const auto b = gen::parse_graph_spec(opt.right);
    const auto kp = [&] {
      if (opt.mode == "i") {
        return kron::BipartiteKronecker::assumption_i(a, b);
      }
      if (opt.mode == "ii") {
        return kron::BipartiteKronecker::assumption_ii(a, b);
      }
      return kron::BipartiteKronecker::raw(a, b);
    }();

    if (pipe(g_shutdown_pipe) != 0) {
      throw io_error("cannot create the shutdown pipe");
    }
    struct sigaction sa = {};
    sa.sa_handler = on_signal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);

    serve::Server server(kp, opt.server);
    if (opt.watchdog_ms > 0) {
      obs::WatchdogOptions wd;
      wd.deadline = std::chrono::milliseconds(opt.watchdog_ms);
      wd.poll = std::chrono::milliseconds(
          std::max<std::size_t>(10, opt.watchdog_ms / 4));
      obs::watchdog_start(wd);
    }
    auto listener = opt.unix_path.empty()
                        ? serve::listen_tcp(opt.tcp_port)
                        : serve::listen_unix(opt.unix_path);
    if (opt.unix_path.empty()) {
      // Scripts read this line back (essential with --tcp 0).
      std::printf("port %d\n", listener->port());
    } else {
      std::printf("unix %s\n", opt.unix_path.c_str());
    }
    std::fflush(stdout);
    obs::log(obs::LogLevel::info, "served", "serving")
        .field("left", opt.left)
        .field("right", opt.right)
        .field("mode", opt.mode)
        .field("vertices", static_cast<std::int64_t>(kp.num_vertices()))
        .field("edges", static_cast<std::int64_t>(kp.num_edges()))
        .field("executors", static_cast<std::int64_t>(opt.server.executors))
        .field("stats_enabled", obs::stats_enabled())
        .field("watchdog_ms", static_cast<std::int64_t>(opt.watchdog_ms));
    server.start(std::move(listener));

    // Block until a signal's byte arrives (EINTR restarts the read).
    char byte = 0;
    while (read(g_shutdown_pipe[0], &byte, 1) < 0) {
      if (errno != EINTR) break;
    }
    obs::log(obs::LogLevel::info, "served", "drain_begin")
        .field("in_flight", server.in_flight());
    server.stop();
    log_summary(server.stats());
    obs::log(obs::LogLevel::info, "served", "drained")
        .field("in_flight", server.in_flight());
    obs::watchdog_stop();
    return 0;
  } catch (const io_error& e) {
    obs::log(obs::LogLevel::error, "served", "fatal")
        .field("kind", "io")
        .field("what", e.what());
    return 3;
  } catch (const domain_error& e) {
    obs::log(obs::LogLevel::error, "served", "fatal")
        .field("kind", "validation")
        .field("what", e.what());
    return 4;
  } catch (const invalid_argument& e) {
    obs::log(obs::LogLevel::error, "served", "fatal")
        .field("kind", "usage")
        .field("what", e.what());
    return 2;
  } catch (const error& e) {
    obs::log(obs::LogLevel::error, "served", "fatal")
        .field("kind", "error")
        .field("what", e.what());
    return 1;
  } catch (const std::exception& e) {
    obs::log(obs::LogLevel::error, "served", "fatal")
        .field("kind", "unexpected")
        .field("what", e.what());
    return 1;
  }
}
