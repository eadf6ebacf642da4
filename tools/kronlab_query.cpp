// kronlab_query — one-shot client for a running kronlab_served.
//
// Connects over TCP or a Unix-domain socket, issues one command, prints
// the answer, and exits.  Retries on timeout per --attempts/--timeout
// (safe: every probe is a pure read and samples are seeded).
//
// Examples:
//   kronlab_query --tcp 40123 stats
//   kronlab_query --unix /tmp/kronlab.sock vertex 17
//   kronlab_query --unix /tmp/kronlab.sock edge 3 1290
//   kronlab_query --tcp 40123 hist 1 64
//   kronlab_query --tcp 40123 sample-edge 42
//   kronlab_query --tcp 40123 --stats          # live telemetry JSON
//   kronlab_query --tcp 40123 server-stats prom
//
// Exit codes: 0 = answered (including "not an edge"), 2 = usage,
// 3 = io / timeout, 1 = anything else.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "kronlab/kronlab.hpp"

using namespace kronlab;

namespace {

struct Options {
  int tcp_port = -1;
  std::string unix_path;
  serve::RetryPolicy retry;
  std::vector<std::string> command;
};

[[noreturn]] void usage(const char* argv0, int code) {
  // kronlab-analyze: allow(obs-log) usage text is CLI output for the
  // invoking human, not an operational event — it stays printf-family.
  std::fprintf(
      code == 0 ? stdout : stderr,
      "usage: %s (--tcp PORT | --unix PATH) [--timeout MS] [--attempts N]\n"
      "          COMMAND\n\n"
      "commands:\n"
      "  vertex P         exact record of product vertex P (0-based)\n"
      "  edge P Q         exact record of product edge (P, Q)\n"
      "  hist LO HI       degree histogram restricted to LO <= d <= HI\n"
      "  sample-vertex S  uniform vertex probe, seeded by S\n"
      "  sample-edge S    uniform edge probe, seeded by S\n"
      "  stats            global graph statistics\n"
      "  server-stats [json|prom]  live server telemetry snapshot\n"
      "                   (per-verb latency histograms, queue depth,\n"
      "                   cache hit rate); --stats is shorthand for\n"
      "                   'server-stats json'\n",
      argv0);
  std::exit(code);
}

/// One-shot CLI: diagnostics go straight to the invoking terminal, then
/// the usage text and exit code 2.
[[noreturn]] void die_usage(const char* argv0, const std::string& msg) {
  // kronlab-analyze: allow(obs-log) a CLI diagnostic for the terminal.
  std::fprintf(stderr, "kronlab_query: %s\n", msg.c_str());
  usage(argv0, 2);
}

/// Runtime-failure funnel (timeouts, io errors): message, then exit.
[[noreturn]] void die(int code, const std::string& msg) {
  // kronlab-analyze: allow(obs-log) the CLI's failure funnel.
  std::fprintf(stderr, "kronlab_query: %s\n", msg.c_str());
  std::exit(code);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        die_usage(argv[0], std::string(flag) + " requires a value");
      }
      return argv[++i];
    };
    if (arg == "--tcp") {
      opt.tcp_port = static_cast<int>(
          std::strtoll(need_value("--tcp").c_str(), nullptr, 10));
    } else if (arg == "--unix") {
      opt.unix_path = need_value("--unix");
    } else if (arg == "--timeout") {
      opt.retry.timeout = std::chrono::milliseconds(
          std::strtoll(need_value("--timeout").c_str(), nullptr, 10));
    } else if (arg == "--attempts") {
      opt.retry.attempts = static_cast<int>(
          std::strtoll(need_value("--attempts").c_str(), nullptr, 10));
    } else if (arg == "--stats") {
      opt.command = {"server-stats", "json"};
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0], 0);
    } else {
      break; // first non-flag word starts the command
    }
  }
  if (i < argc && !opt.command.empty()) {
    die_usage(argv[0], "--stats cannot be combined with a command");
  }
  for (; i < argc; ++i) opt.command.emplace_back(argv[i]);
  if ((opt.tcp_port < 0) == opt.unix_path.empty()) {
    die_usage(argv[0], "exactly one of --tcp / --unix is required");
  }
  if (opt.retry.attempts < 1) {
    die_usage(argv[0], "--attempts requires at least 1");
  }
  if (opt.command.empty()) {
    die_usage(argv[0], "a command is required");
  }
  return opt;
}

serve::word_t parse_word(const std::string& s, const char* what,
                         char** argv) {
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') {
    die_usage(argv[0], std::string(what) + " must be an integer, got '" +
                           s + "'");
  }
  return v;
}

void expect_args(const Options& opt, std::size_t n, char** argv) {
  if (opt.command.size() != n + 1) {
    die_usage(argv[0], "command '" + opt.command[0] + "' takes " +
                           std::to_string(n) + " argument" +
                           (n == 1 ? "" : "s"));
  }
}

void print_vertex(const kron::VertexRecord& r) {
  std::printf("vertex %lld: degree %lld, two_hop %lld, squares %lld, "
              "closure %.6f\n",
              static_cast<long long>(r.p),
              static_cast<long long>(r.degree),
              static_cast<long long>(r.two_hop),
              static_cast<long long>(r.squares), r.closure);
}

void print_edge(const kron::EdgeRecord& r) {
  std::printf("edge (%lld, %lld): degrees (%lld, %lld), squares %lld, "
              "gamma %.6f\n",
              static_cast<long long>(r.p), static_cast<long long>(r.q),
              static_cast<long long>(r.degree_p),
              static_cast<long long>(r.degree_q),
              static_cast<long long>(r.squares), r.gamma);
}

} // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  try {
    auto transport = opt.unix_path.empty()
                         ? serve::connect_tcp("127.0.0.1", opt.tcp_port)
                         : serve::connect_unix(opt.unix_path);
    serve::Client client(std::move(transport), opt.retry);

    const std::string& cmd = opt.command[0];
    if (cmd == "vertex") {
      expect_args(opt, 1, argv);
      print_vertex(client.vertex(parse_word(opt.command[1], "P", argv)));
    } else if (cmd == "edge") {
      expect_args(opt, 2, argv);
      const auto r = client.try_edge(parse_word(opt.command[1], "P", argv),
                                     parse_word(opt.command[2], "Q", argv));
      if (r) {
        print_edge(*r);
      } else {
        std::printf("not an edge\n");
      }
    } else if (cmd == "hist") {
      expect_args(opt, 2, argv);
      const auto pairs = client.degree_histogram(
          parse_word(opt.command[1], "LO", argv),
          parse_word(opt.command[2], "HI", argv));
      for (const auto& [degree, vertices] : pairs) {
        std::printf("degree %lld: %lld vertices\n",
                    static_cast<long long>(degree),
                    static_cast<long long>(vertices));
      }
    } else if (cmd == "sample-vertex") {
      expect_args(opt, 1, argv);
      print_vertex(client.sample_vertex(static_cast<std::uint64_t>(
          parse_word(opt.command[1], "SEED", argv))));
    } else if (cmd == "sample-edge") {
      expect_args(opt, 1, argv);
      print_edge(client.sample_edge(static_cast<std::uint64_t>(
          parse_word(opt.command[1], "SEED", argv))));
    } else if (cmd == "stats") {
      expect_args(opt, 0, argv);
      const auto s = client.stats();
      std::printf("vertices %lld\nedges %lld\nglobal 4-cycles %lld\n",
                  static_cast<long long>(s.num_vertices),
                  static_cast<long long>(s.num_edges),
                  static_cast<long long>(s.global_squares));
    } else if (cmd == "server-stats") {
      if (opt.command.size() > 2) expect_args(opt, 1, argv);
      auto format = serve::StatsFormat::json;
      if (opt.command.size() == 2) {
        if (opt.command[1] == "prom" || opt.command[1] == "prometheus") {
          format = serve::StatsFormat::prometheus;
        } else if (opt.command[1] != "json") {
          die_usage(argv[0], "server-stats format must be json or prom");
        }
      }
      const std::string text = client.server_stats(format);
      std::fwrite(text.data(), 1, text.size(), stdout);
      if (text.empty() || text.back() != '\n') std::printf("\n");
    } else {
      die_usage(argv[0], "unknown command: " + cmd);
    }
    return 0;
  } catch (const timeout_error& e) {
    die(3, std::string("timeout: ") + e.what());
  } catch (const io_error& e) {
    die(3, std::string("io error: ") + e.what());
  } catch (const invalid_argument& e) {
    die(2, e.what());
  } catch (const std::exception& e) {
    die(1, std::string("unexpected error: ") + e.what());
  }
}
