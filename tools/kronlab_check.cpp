// kronlab_check — score a system under test against Kronecker ground
// truth.
//
// The companion to kronlab_gen: given the same factor specs (so the same
// deterministic product), it validates artifacts a SUT produced:
//
//   --expect-global N      check a claimed global 4-cycle count
//   --check-truth FILE     re-verify a "p q squares" file (e.g. one a SUT
//                          filled in) — every line is checked exactly
//   --check-edges FILE     verify an edge-list file matches the product
//                          exactly (same edges, nothing missing or extra)
//   --probes N             spot-check N random vertices/edges and print
//                          the exact records (for manual comparison)
//
// Exit code 0 iff every requested check passed.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_set>

#include "kronlab/kronlab.hpp"

using namespace kronlab;

namespace {

struct Options {
  std::string left, right;
  std::string mode = "raw";
  std::string truth_path;
  std::string edges_path;
  count_t expect_global = -1;
  index_t probes = 0;
  bool has_expect_global = false;
};

[[noreturn]] void usage(const char* argv0, int code) {
  // kronlab-analyze: allow(obs-log) usage text is CLI output for the
  // invoking human, not an operational event — it stays printf-family.
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: %s --left SPEC --right SPEC [--mode i|ii|raw]\n"
               "          [--expect-global N] [--check-truth FILE]\n"
               "          [--check-edges FILE] [--probes N]\n\n"
               "factor SPEC forms:\n%s\n",
               argv0, gen::graph_spec_help().c_str());
  std::exit(code);
}

/// CLI argument diagnostics go straight to the terminal, then the usage
/// text and exit code 2.
[[noreturn]] void die_usage(const char* argv0, const std::string& msg) {
  // kronlab-analyze: allow(obs-log) a CLI diagnostic for the terminal.
  std::fprintf(stderr, "kronlab_check: %s\n", msg.c_str());
  usage(argv0, 2);
}

/// Runtime-failure funnel: message to the terminal, then exit.
/// Exit codes: 0 = all checks passed, 2 = usage / bad spec, 3 = io,
/// 4 = validation mismatch, 1 = anything else.
[[noreturn]] void die(int code, const std::string& msg) {
  // kronlab-analyze: allow(obs-log) the CLI's failure funnel.
  std::fprintf(stderr, "kronlab_check: %s\n", msg.c_str());
  std::exit(code);
}

/// Per-finding diagnostics (WRONG/EXTRA/MISSING lines) are the checker's
/// primary human-facing output — verbatim stderr, not logfmt.
void note(const std::string& msg) {
  // kronlab-analyze: allow(obs-log) checker findings are its output.
  std::fprintf(stderr, "%s\n", msg.c_str());
}

std::string num(long long v) { return std::to_string(v); }

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
    if (arg == "--left") {
      opt.left = need_value("--left");
    } else if (arg == "--right") {
      opt.right = need_value("--right");
    } else if (arg == "--mode") {
      opt.mode = need_value("--mode");
    } else if (arg == "--expect-global") {
      opt.expect_global =
          std::strtoll(need_value("--expect-global").c_str(), nullptr, 10);
      opt.has_expect_global = true;
    } else if (arg == "--check-truth") {
      opt.truth_path = need_value("--check-truth");
    } else if (arg == "--check-edges") {
      opt.edges_path = need_value("--check-edges");
    } else if (arg == "--probes") {
      opt.probes =
          std::strtoll(need_value("--probes").c_str(), nullptr, 10);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0], 0);
    } else {
      die_usage(argv[0], "unknown argument: " + arg);
    }
  }
  if (opt.left.empty() || opt.right.empty()) {
    die_usage(argv[0], "--left and --right are required");
  }
  return opt;
}

bool check_truth_file(const kron::GroundTruthOracle& oracle,
                      const std::string& path) {
  std::ifstream in(path);
  if (!in) throw io_error("cannot open " + path);
  std::string line;
  count_t checked = 0, bad = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '%' || line[0] == '#') continue;
    std::istringstream ls(line);
    index_t p, q;
    count_t claimed;
    if (!(ls >> p >> q >> claimed)) {
      note("  malformed truth line: " + line);
      ++bad;
      continue;
    }
    ++checked;
    if (p < 1 || q < 1 || p > oracle.num_vertices() ||
        q > oracle.num_vertices()) {
      if (bad < 5) {
        note("  WRONG: (" + num(p) + "," + num(q) + ") out of range");
      }
      ++bad;
      continue;
    }
    try {
      const auto record = oracle.edge(p - 1, q - 1);
      if (record.squares != claimed) {
        if (bad < 5) {
          note("  WRONG: edge (" + num(p) + "," + num(q) + ") claimed " +
               num(claimed) + " exact " + num(record.squares));
        }
        ++bad;
      }
    } catch (const invalid_argument&) {
      if (bad < 5) {
        note("  WRONG: (" + num(p) + "," + num(q) + ") is not an edge");
      }
      ++bad;
    }
  }
  std::printf("truth file  : %lld lines checked, %lld wrong -> %s\n",
              static_cast<long long>(checked), static_cast<long long>(bad),
              bad == 0 ? "PASS" : "FAIL");
  return bad == 0;
}

bool check_edges_file(const kron::BipartiteKronecker& kp,
                      const std::string& path) {
  std::ifstream in(path);
  if (!in) throw io_error("cannot open " + path);
  std::unordered_set<std::uint64_t> seen;
  const auto key = [&](index_t p, index_t q) {
    if (p > q) std::swap(p, q);
    return static_cast<std::uint64_t>(p) *
               static_cast<std::uint64_t>(kp.num_vertices()) +
           static_cast<std::uint64_t>(q);
  };
  std::string line;
  count_t extra = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '%' || line[0] == '#') continue;
    std::istringstream ls(line);
    index_t p, q;
    if (!(ls >> p >> q)) {
      note("  malformed edge line: " + line);
      ++extra;
      continue;
    }
    --p;
    --q;
    if (!kp.has_edge(p, q)) {
      if (extra < 5) {
        note("  EXTRA edge (" + num(p + 1) + "," + num(q + 1) + ")");
      }
      ++extra;
      continue;
    }
    seen.insert(key(p, q));
  }
  count_t missing = 0;
  kron::EdgeStream(kp).for_each_edge([&](index_t p, index_t q) {
    if (!seen.count(key(p, q))) {
      if (missing < 5) {
        note("  MISSING edge (" + num(p + 1) + "," + num(q + 1) + ")");
      }
      ++missing;
    }
  });
  std::printf("edge file   : %zu distinct present, %lld extra, %lld "
              "missing -> %s\n",
              seen.size(), static_cast<long long>(extra),
              static_cast<long long>(missing),
              (extra == 0 && missing == 0) ? "PASS" : "FAIL");
  return extra == 0 && missing == 0;
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
    const kron::GroundTruthOracle oracle(kp);

    bool ok = true;
    if (opt.has_expect_global) {
      const count_t exact = kron::global_squares(kp);
      const bool pass = exact == opt.expect_global;
      std::printf("global count: claimed %s exact %s -> %s\n",
                  format_count(opt.expect_global).c_str(),
                  format_count(exact).c_str(), pass ? "PASS" : "FAIL");
      ok &= pass;
    }
    if (!opt.truth_path.empty()) {
      ok &= check_truth_file(oracle, opt.truth_path);
    }
    if (!opt.edges_path.empty()) {
      ok &= check_edges_file(kp, opt.edges_path);
    }
    if (opt.probes > 0) {
      Rng rng(12345);
      std::printf("probes:\n");
      for (index_t t = 0; t < opt.probes; ++t) {
        const auto v = oracle.sample_vertex(rng);
        const auto e = oracle.sample_edge(rng);
        std::printf("  vertex %lld: deg=%lld squares=%lld | edge "
                    "(%lld,%lld): squares=%lld\n",
                    static_cast<long long>(v.p),
                    static_cast<long long>(v.degree),
                    static_cast<long long>(v.squares),
                    static_cast<long long>(e.p),
                    static_cast<long long>(e.q),
                    static_cast<long long>(e.squares));
      }
    }
    // Exit codes: 0 = all checks passed, 2 = usage / bad spec, 3 = io,
    // 4 = validation mismatch, 1 = anything else.
    return ok ? 0 : 4;
  } catch (const io_error& e) {
    die(3, std::string("io error: ") + e.what());
  } catch (const invalid_argument& e) {
    die(2, e.what());
  } catch (const error& e) {
    die(1, e.what());
  } catch (const std::exception& e) {
    die(1, std::string("unexpected error: ") + e.what());
  }
}
