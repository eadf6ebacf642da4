// perfbench/src/workload_generate.cpp
//
// generate: stream a ~10M-record product into a KRNLSEG1/MAN1 store at 4
// shards with validation on, then re-read it with verify_store.  One op is
// one generate-plus-verify pass into a fresh store.  io does most of the
// work here, in both directions; graph, dist and serve stay idle.
//
// Checks per pass: verify_store passes, every record is committed and
// re-read, and the manifest's per-shard chain hashes equal the first
// pass's.

#include <sys/vfs.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/io/stream_gen.hpp"
#include "kronlab/kron/oracle.hpp"
#include "kronlab/kron/partition.hpp"
#include "mem_file_ops.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace kronlab;

constexpr index_t kShards = 4;

/// Flip one byte in the middle of the store's first segment (the
/// self-test's injected corruption), through the store's own FileOps.
void corrupt_first_segment(io::FileOps& fs, const std::string& dir) {
  for (const auto& name : fs.list_dir(dir)) {
    if (name.size() < 8 || name.substr(name.size() - 8) != ".krnlseg") {
      continue;
    }
    auto bytes = fs.read_file(dir + "/" + name).value();
    bytes[bytes.size() / 2] ^= 0x01;
    auto f = fs.create(dir + "/" + name);
    io::write_all(*f, bytes.data(), bytes.size());
    f->close();
    return;
  }
}

/// Filesystem type of `path` (statfs), for the run context.
std::string fs_type(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
  case 0x01021994UL: return "tmpfs";
  case 0xEF53UL: return "ext4";
  case 0x794C7630UL: return "overlayfs";
  case 0x58465342UL: return "xfs";
  case 0x9123683EUL: return "btrfs";
  default: {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%lx",
                  static_cast<unsigned long>(st.f_type));
    return buf;
  }
  }
}

struct State {
  State(kron::BipartiteKronecker product, const std::string& store_dir)
      : kp(std::move(product)), parts(kp, kShards),
        on_disk(!store_dir.empty()),
        dir(on_disk ? store_dir : "store/generate") {}

  /// Where the store lives: in memory, or with --store-dir on the real
  /// filesystem through io::real_file_ops().
  [[nodiscard]] io::FileOps& fs() {
    return on_disk ? io::real_file_ops() : memory;
  }

  ~State() { reset(); }
  State(const State&) = delete;
  State& operator=(const State&) = delete;

  /// Empty the store (before each pass, and when done).
  void reset() {
    if (on_disk) {
      std::error_code ec; // a store that cannot be removed shows next pass
      std::filesystem::remove_all(dir, ec);
    } else {
      memory.remove_tree(dir);
    }
  }

  kron::BipartiteKronecker kp;
  kron::PartitionedStream parts;
  MemFileOps memory;
  bool on_disk;
  std::string dir;
};

std::unique_ptr<State> build(const Options& opt) {
  Rng rng(opt.seed);
  auto m = opt.tiny ? gen::random_nonbipartite_connected(12, 30, rng)
                    : gen::random_nonbipartite_connected(40, 700, rng);
  auto b = opt.tiny ? gen::preferential_bipartite(16, 24, 120, rng)
                    : gen::preferential_bipartite(64, 96, 3600, rng);
  return std::make_unique<State>(
      kron::BipartiteKronecker::raw(std::move(m), std::move(b)),
      opt.store_dir);
}

io::StreamGenOptions store_options(const State& s) {
  io::StreamGenOptions o;
  o.dir = s.dir;
  o.shards = kShards;
  o.segment_edges = 1 << 14;
  o.validate = true;
  o.sample_rate = 64;
  return o;
}

/// One generate + verify pass.  `reference` holds the first pass's chain
/// hashes; later passes must reproduce them.
bool pass(State& s, const Options& opt, std::vector<std::uint64_t>& reference,
          FileOpCounts& counts) {
  trace::Span op("op.generate");
  s.reset();
  CountingFileOps ops(s.fs());
  const auto o = store_options(s);
  const count_t records = s.kp.left().nnz() * s.kp.right().nnz();

  io::StreamGenReport rep;
  {
    trace::Span span("io.generate_durable");
    rep = io::generate_durable(ops, s.kp, o);
  }
  if (opt.inject_fault) corrupt_first_segment(s.fs(), s.dir);
  io::VerifyReport ver;
  {
    trace::Span span("io.verify_store");
    ver = io::verify_store(ops, s.kp, o);
  }
  counts = ops.counts();

  std::vector<std::uint64_t> chains;
  for (const auto& shard : rep.manifest.shards) {
    chains.push_back(shard.chain_hash);
  }
  if (reference.empty()) reference = chains;
  return rep.edges_written == records && ver.edges == records &&
         rep.manifest.total_edges() == records && chains == reference;
}

/// Layer probes: the oracle build, the bare stream and the validator,
/// each timed from outside on this workload's product.
trace::SpanId layer_probes(const State& s) {
  trace::Span root("probes.generate");
  std::optional<kron::GroundTruthOracle> oracle;
  for (int r = 0; r < 5; ++r) {
    trace::Span span("kron.oracle_build");
    oracle.emplace(s.kp);
  }
  index_t sink = 0;
  {
    trace::Span span("kron.stream");
    for (index_t shard = 0; shard < kShards; ++shard) {
      s.parts.for_each_entry(shard,
                             [&](index_t p, index_t q) { sink ^= p + q; });
    }
  }
  {
    trace::Span span("io.validator");
    io::StreamValidator v(*oracle, 1, 64);
    for (index_t shard = 0; shard < kShards; ++shard) {
      v.begin_shard(false);
      s.parts.for_each_entry(shard, [&](index_t p, index_t q) {
        v.observe(p, q);
        sink ^= p;
      });
      v.end_shard();
    }
  }
  keep(sink);
  return root.id();
}

} // namespace

Result run_generate(const Options& opt) {
  Result r;
  double setup_s = 0;
  const int reps = opt.mode == Mode::timed ? 201 : 3;
  auto state = repeated_setup(reps, setup_s, [&] { return build(opt); });
  State& s = *state;
  const count_t records = s.kp.left().nnz() * s.kp.right().nnz();
  r.context["instance"] = json_string(
      opt.tiny ? "rnonbip(12,30) (x) prefbip(16,24,120)"
               : "rnonbip(40,700) (x) prefbip(64,96,3600)");
  r.context["vertices"] = json_number(static_cast<double>(s.kp.num_vertices()));
  r.context["edges"] = json_number(static_cast<double>(s.kp.num_edges()));
  r.context["records"] = json_number(static_cast<double>(records));
  r.context["shards"] = json_number(kShards);
  s.fs().make_dir(s.dir);
  r.context["store_fs"] = json_string(
      s.on_disk ? fs_type(s.dir) : "memory (MemFileOps, in-process)");

  std::vector<std::uint64_t> reference;
  FileOpCounts counts; // of the latest pass
  const auto op = [&] { return pass(s, opt, reference, counts); };

  if (opt.mode == Mode::timed) {
    count_ops(r, run_for(0, op)); // warm-up pass, checked but not timed
    const OpLog log = run_for(opt.seconds, op);
    count_ops(r, log);
    const double op_s = median(log.seconds);
    add_end_to_end(r, static_cast<double>(records) / op_s, op_s * 1e3,
                   setup_s);
    return r;
  }

  const trace::SpanId root = traced_ops(r, opt, "run.generate", op);
  const trace::SpanId probes_root = layer_probes(s);
  trace::set_enabled(false);

  const auto spans = trace::collect();
  const auto loop = trace::summarize(spans, root);
  const auto probes = trace::summarize(spans, probes_root);
  trace::print_table(spans, root, "generate, traced passes");
  trace::print_table(spans, probes_root, "generate, layer probes");

  const auto per_edge = [&](double ms) {
    return ms * 1e6 / static_cast<double>(records);
  };
  const double stream_ms = trace::mean_ms(probes, "kron.stream");
  auto& m = r.metrics;
  m["kron.oracle_build_ms"] = {trace::mean_ms(probes, "kron.oracle_build"), "ms"};
  m["kron.stream_ns_per_edge"] = {per_edge(stream_ms), "ns"};
  m["io.validator_ns_per_edge"] = {
      per_edge(trace::mean_ms(probes, "io.validator") - stream_ms), "ns"};
  m["io.generate_ns_per_edge"] = {
      per_edge(trace::mean_ms(loop, "io.generate_durable")), "ns"};
  m["io.verify_ns_per_edge"] = {
      per_edge(trace::mean_ms(loop, "io.verify_store")), "ns"};
  m["io.bytes_per_edge"] = {static_cast<double>(counts.bytes_written) /
                                static_cast<double>(records),
                            "bytes"};
  m["io.syncs"] = {static_cast<double>(counts.syncs), "count"};
  m["io.publishes"] = {static_cast<double>(counts.publishes), "count"};
  m["io.sync_ms"] = {static_cast<double>(counts.sync_ns) * 1e-6, "ms"};
  return r;
}

} // namespace perfbench
