// kronlab_gen — command-line bipartite Kronecker generator.
//
// Generates C = M ⊗ B from two factor specs, streams the edge list to a
// file (or stdout), and reports exact ground-truth statistics.
//
// Examples:
//   kronlab_gen --left tritail:1 --right kbip:3,4 --mode i --summary
//   kronlab_gen --left unicode --right unicode --mode raw
//               --edges /tmp/c.el --truth /tmp/c.truth
//   (the unicode stand-in is disconnected, so modes i/ii — which validate
//   Thm 1/2's connectivity hypotheses — reject it; use raw, as §IV does)
//   kronlab_gen --left nonbip:20,60,7 --right prefbip:100,150,400,9
//               --mode raw --summary
//
// Modes: i  = Assumption 1(i)  (left factor non-bipartite, validated)
//        ii = Assumption 1(ii) (left factor gets full self loops)
//        raw = structural checks only (loop-free right factor)
//
// The --truth file contains one "p q squares" line per undirected edge —
// the validation oracle a system under test is scored against.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "kronlab/kronlab.hpp"
#include "kronlab/obs/log.hpp"

using namespace kronlab;

namespace {

struct Options {
  std::string left, right;
  std::string mode = "raw";
  std::string edges_path;
  std::string truth_path;
  index_t shards = 0; ///< if > 0, write edge list as N shard files
  bool summary = false;

  // Durable streaming generation (io/stream_gen.hpp).
  std::string out_dir;   ///< durable store directory; empty = off
  bool resume = false;   ///< continue a crashed run in out_dir
  bool verify = false;   ///< verify an existing store instead of writing
  bool validate = true;  ///< on-the-fly oracle validation
  int scale = 1;         ///< right factor Kronecker power in the chain
  count_t segment_edges = 1 << 14;
};

[[noreturn]] void usage(const char* argv0, int code) {
  // kronlab-analyze: allow(obs-log) usage text is CLI output for the
  // invoking human, not an operational event — it stays printf-family.
  std::fprintf(
      code == 0 ? stdout : stderr,
      "usage: %s --left SPEC --right SPEC [--mode i|ii|raw]\n"
      "          [--edges FILE] [--truth FILE] [--summary]\n"
      "          [--out DIR [--resume|--verify]] [--scale N]\n\n"
      "factor SPEC forms:\n%s\n\n"
      "--edges  write the product edge list (1-based 'p q' lines)\n"
      "--shards N  with --edges: write N row-partitioned shard files\n"
      "            FILE.0 .. FILE.N-1 instead of one file;\n"
      "            with --out: number of durable output shards (default 4)\n"
      "--truth  write 'p q squares' ground-truth lines per edge\n"
      "--summary print exact global statistics\n\n"
      "durable streaming generation:\n"
      "--out DIR      stream edges into a crash-tolerant durable store\n"
      "               (KRNLSEG2 segments + KRNLMAN1 manifest)\n"
      "--resume       continue a previously killed run in DIR\n"
      "--verify       re-read and validate a complete store in DIR\n"
      "--scale N      product is left (x) right^(x)N, collapsed into two\n"
      "               halves (raw mode only for N > 1)\n"
      "--segment-edges N  records per segment / commit grain (default %d)\n"
      "--no-validate  skip on-the-fly ground-truth validation\n",
      argv0, gen::graph_spec_help().c_str(), 1 << 14);
  std::exit(code);
}

/// CLI argument diagnostics go straight to the terminal, then the usage
/// text and exit code 2.
[[noreturn]] void die_usage(const char* argv0, const std::string& msg) {
  // kronlab-analyze: allow(obs-log) a CLI diagnostic for the terminal.
  std::fprintf(stderr, "kronlab_gen: %s\n", msg.c_str());
  usage(argv0, 2);
}

/// Runtime-failure funnel: message to the terminal, then exit.
/// Exit codes: 2 = usage / bad spec, 3 = io, 4 = validation failure,
/// 1 = anything else.  Scripts branching on the generator's outcome
/// depend on these staying distinct.
[[noreturn]] void die(int code, const std::string& msg) {
  // kronlab-analyze: allow(obs-log) the CLI's failure funnel.
  std::fprintf(stderr, "kronlab_gen: %s\n", msg.c_str());
  std::exit(code);
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
    if (arg == "--left") {
      opt.left = need_value("--left");
    } else if (arg == "--right") {
      opt.right = need_value("--right");
    } else if (arg == "--mode") {
      opt.mode = need_value("--mode");
    } else if (arg == "--edges") {
      opt.edges_path = need_value("--edges");
    } else if (arg == "--truth") {
      opt.truth_path = need_value("--truth");
    } else if (arg == "--shards") {
      opt.shards = std::strtoll(need_value("--shards").c_str(), nullptr, 10);
      if (opt.shards < 1) {
        die_usage(argv[0], "--shards requires a positive integer");
      }
    } else if (arg == "--summary") {
      opt.summary = true;
    } else if (arg == "--out") {
      opt.out_dir = need_value("--out");
    } else if (arg == "--resume") {
      opt.resume = true;
    } else if (arg == "--verify") {
      opt.verify = true;
    } else if (arg == "--no-validate") {
      opt.validate = false;
    } else if (arg == "--scale") {
      opt.scale = static_cast<int>(
          std::strtoll(need_value("--scale").c_str(), nullptr, 10));
      if (opt.scale < 1) {
        die_usage(argv[0], "--scale requires a positive integer");
      }
    } else if (arg == "--segment-edges") {
      opt.segment_edges =
          std::strtoll(need_value("--segment-edges").c_str(), nullptr, 10);
      if (opt.segment_edges < 1) {
        die_usage(argv[0], "--segment-edges requires a positive integer");
      }
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
  if ((opt.resume || opt.verify) && opt.out_dir.empty()) {
    die_usage(argv[0], "--resume/--verify require --out DIR");
  }
  if (opt.resume && opt.verify) {
    die_usage(argv[0], "--resume and --verify are mutually exclusive");
  }
  if (opt.scale > 1 && opt.mode != "raw") {
    die_usage(argv[0], "--scale > 1 requires --mode raw (the collapsed "
                       "chain is not a validated Assumption 1 pair)");
  }
  if (!opt.summary && opt.edges_path.empty() && opt.truth_path.empty() &&
      opt.out_dir.empty()) {
    opt.summary = true; // doing nothing would be surprising
  }
  return opt;
}

} // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  try {
    const auto a = gen::parse_graph_spec(opt.left);
    const auto b = gen::parse_graph_spec(opt.right);
    const auto kp = [&] {
      if (opt.scale > 1) {
        // C = left (x) right^(x)scale: collapse the validated chain into
        // two materialized halves (each ~sqrt of the product) and stream
        // through the ordinary pair machinery — every ground-truth
        // identity is (x)-associative, so the oracle is exact either way.
        std::vector<graph::Adjacency> factors;
        factors.reserve(static_cast<std::size_t>(opt.scale) + 1);
        factors.push_back(a);
        for (int f = 0; f < opt.scale; ++f) factors.push_back(b);
        auto [l, r] = kron::ChainKronecker::of(std::move(factors))
                          .collapse_pair();
        return kron::BipartiteKronecker::raw(std::move(l), std::move(r));
      }
      if (opt.mode == "i") {
        return kron::BipartiteKronecker::assumption_i(a, b);
      }
      if (opt.mode == "ii") {
        return kron::BipartiteKronecker::assumption_ii(a, b);
      }
      return kron::BipartiteKronecker::raw(a, b);
    }();

    if (opt.summary) {
      Timer t;
      const count_t squares = kron::global_squares(kp);
      const double truth_s = t.seconds();
      std::printf("factors        : %s (x) %s  [mode %s]\n",
                  opt.left.c_str(), opt.right.c_str(), opt.mode.c_str());
      std::printf("vertices       : %s\n",
                  format_count(kp.num_vertices()).c_str());
      std::printf("edges          : %s\n",
                  format_count(kp.num_edges()).c_str());
      std::printf("global 4-cycles: %s  (ground truth in %s)\n",
                  format_count(squares).c_str(),
                  format_duration(truth_s).c_str());
      if (graph::is_connected(kp.left()) &&
          graph::is_connected(kp.right()) && kp.left().nnz() > 0 &&
          kp.right().nnz() > 0) {
        const auto pred = kron::predict(kp);
        std::printf("structure      : %s, %s (predicted from factors)\n",
                    pred.bipartite ? "bipartite" : "non-bipartite",
                    pred.connected ? "connected" : "2 components");
      } else {
        std::printf("structure      : %s (disconnected factors — no "
                    "connectivity guarantee)\n",
                    graph::is_bipartite(kp.right()) ||
                            graph::is_bipartite(kp.left())
                        ? "bipartite"
                        : "unknown parity");
      }
    }

    if (!opt.out_dir.empty()) {
      io::StreamGenOptions so;
      so.dir = opt.out_dir;
      so.shards = opt.shards > 0 ? opt.shards : 4;
      so.segment_edges = opt.segment_edges;
      so.resume = opt.resume;
      so.validate = opt.validate;
      if (opt.verify) {
        Timer t;
        const auto rep = io::verify_store(io::real_file_ops(), kp, so);
        obs::log(obs::LogLevel::info, "gen", "verified")
            .field("dir", opt.out_dir)
            .field("segments", static_cast<std::int64_t>(rep.segments))
            .field("edges", static_cast<std::int64_t>(rep.edges))
            .field("rows_checked",
                   static_cast<std::int64_t>(rep.rows_checked))
            .field("edges_checked",
                   static_cast<std::int64_t>(rep.edges_checked))
            .field("elapsed", format_duration(t.seconds()));
      } else {
        Timer t;
        const auto rep = io::generate_durable(io::real_file_ops(), kp, so);
        obs::log(obs::LogLevel::info, "gen", "wrote_store")
            .field("dir", opt.out_dir)
            .field("edges_written",
                   static_cast<std::int64_t>(rep.edges_written))
            .field("segments_sealed",
                   static_cast<std::int64_t>(rep.segments_sealed))
            .field("edges_resumed",
                   static_cast<std::int64_t>(rep.edges_resumed))
            .field("adopted_segments",
                   static_cast<std::int64_t>(rep.adopted_segments))
            .field("discarded_files",
                   static_cast<std::int64_t>(rep.discarded_files))
            .field("rows_checked",
                   static_cast<std::int64_t>(rep.rows_checked))
            .field("edges_checked",
                   static_cast<std::int64_t>(rep.edges_checked))
            .field("elapsed", format_duration(t.seconds()));
      }
    }

    if (!opt.edges_path.empty()) {
      if (opt.shards > 0) {
        const kron::PartitionedStream ps(kp, opt.shards);
        for (index_t r = 0; r < opt.shards; ++r) {
          const std::string path =
              opt.edges_path + "." + std::to_string(r);
          std::ofstream out(path);
          if (!out) throw io_error("cannot write " + path);
          ps.write_shard(r, out);
          obs::log(obs::LogLevel::info, "gen", "wrote_shard")
              .field("path", path)
              .field("entries",
                     static_cast<std::int64_t>(ps.entries_of(r)));
        }
      } else {
        std::ofstream out(opt.edges_path);
        if (!out) throw io_error("cannot write " + opt.edges_path);
        kron::EdgeStream(kp).write_edge_list(out);
        obs::log(obs::LogLevel::info, "gen", "wrote_edges")
            .field("path", opt.edges_path);
      }
    }

    if (!opt.truth_path.empty()) {
      std::ofstream out(opt.truth_path);
      if (!out) throw io_error("cannot write " + opt.truth_path);
      out << "% p q squares (1-based, each undirected edge once)\n";
      kron::GroundTruthStream stream(kp);
      stream.for_each_entry([&](index_t p, index_t q, count_t sq) {
        if (p < q) out << (p + 1) << ' ' << (q + 1) << ' ' << sq << '\n';
      });
      obs::log(obs::LogLevel::info, "gen", "wrote_truth")
          .field("path", opt.truth_path);
    }
    return 0;
  } catch (const io_error& e) {
    die(3, std::string("io error: ") + e.what());
  } catch (const domain_error& e) {
    die(4, std::string("validation failed: ") + e.what());
  } catch (const invalid_argument& e) {
    die(2, e.what());
  } catch (const error& e) {
    die(1, e.what());
  } catch (const std::exception& e) {
    die(1, std::string("unexpected error: ") + e.what());
  }
}
