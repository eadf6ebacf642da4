// Durable streaming-generation bench — the crash-tolerance backbone in
// miniature (DESIGN.md §12): stream a Kronecker product's edges into a
// KRNLSEG2/KRNLMAN1 store with on-the-fly oracle validation, then measure
// what resumability costs.
//
// Sections:
//   cold_generate     fresh store, full stream, validation on — the
//                     baseline edges/sec of the durable pipeline.
//   interrupted_total kill the writer mid-run (FaultyFileOps, a
//                     deterministic crash at a segment seal) and resume;
//                     the sum must stay within 5% of a cold run, and the
//                     resumed manifest must be chain-hash-identical.
//   resume_scan       no-op resume of a complete store — the pure scan /
//                     re-checksum overhead every restart pays.
//   verify_store      full offline re-validation (read every segment,
//                     replay through the oracle validator).

#include <stdlib.h> // mkdtemp (POSIX)

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>

#include "harness/harness.hpp"
#include "kronlab/common/timer.hpp"
#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/io/file_ops.hpp"
#include "kronlab/io/stream_gen.hpp"
#include "kronlab/kron/partition.hpp"
#include "kronlab/kron/product.hpp"

using namespace kronlab;

namespace {

/// This run's own temp directory (mkdtemp), removed with its stores on
/// exit, so concurrent bench runs never share or delete each other's
/// live stores.
class RunDir {
public:
  RunDir()
      : root_((std::filesystem::temp_directory_path() /
               "kronlab_bench_streaming_XXXXXX")
                  .string()) {
    if (::mkdtemp(root_.data()) == nullptr) {
      throw std::system_error(errno, std::generic_category(),
                              "mkdtemp " + root_);
    }
  }
  ~RunDir() {
    std::error_code ec; // best effort: a destructor must not throw
    std::filesystem::remove_all(root_, ec);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  /// Wipe and recreate the store directory `name` under the run's root.
  [[nodiscard]] std::string fresh(const std::string& name) const {
    const auto dir = std::filesystem::path(root_) / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
  }

private:
  std::string root_;
};

} // namespace

int main(int argc, char** argv) {
  bench::Harness h("streaming", bench::parse_args(argc, argv));
  const RunDir run_dir;
  std::printf("== durable streaming generation (crash-tolerant store) ==\n\n");

  // Instance sized so a cold run is long enough for the ≤5% resume-
  // overhead check to sit above timer noise even in --quick.
  Rng rng(909);
  const index_t m_edges = h.quick() ? 300 : 700;
  const index_t b_edges = h.quick() ? 1200 : 3600;
  const auto kp = kron::BipartiteKronecker::raw(
      gen::random_nonbipartite_connected(40, m_edges, rng),
      gen::preferential_bipartite(64, 96, b_edges, rng));

  io::StreamGenOptions opt;
  opt.shards = 4;
  opt.segment_edges = 1 << 13;
  opt.sample_rate = 64;

  const kron::PartitionedStream parts(kp, opt.shards);
  count_t total_entries = 0, total_segments = 0;
  for (index_t s = 0; s < opt.shards; ++s) {
    const count_t e = parts.entries_of(s);
    total_entries += e;
    total_segments += (e + opt.segment_edges - 1) / opt.segment_edges;
  }
  std::printf("instance: |V|=%s |E|=%s -> %s records, %lld shards x %lld "
              "records/segment (%lld segments)\n\n",
              format_count(kp.num_vertices()).c_str(),
              format_count(kp.num_edges()).c_str(),
              format_count(total_entries).c_str(),
              static_cast<long long>(opt.shards),
              static_cast<long long>(opt.segment_edges),
              static_cast<long long>(total_segments));

  // -------------------------------------------------------------------
  // Cold baseline: fresh directory each rep, validation on.  One untimed
  // warmup first — quick mode runs a single rep, and a cold page cache /
  // first oracle build would inflate the baseline the resume sections
  // are compared against.
  {
    io::StreamGenOptions o = opt;
    o.dir = run_dir.fresh("stream_warmup");
    (void)io::generate_durable(io::real_file_ops(), kp, o);
  }
  // -------------------------------------------------------------------
  // Cold baseline vs interrupted + resumed, measured as PAIRS: each rep
  // times a fresh cold run, then a run crashed at a quarter-way segment
  // seal (FaultyFileOps) plus its resume, back to back.  The overhead
  // ratio is taken per pair and the best pair wins — machine-load noise
  // hits both sides of a pair alike, where independent best-of-N on a
  // busy box can swing the ratio by tens of percent.
  double best_cold = -1.0, best_total = -1.0;
  double best_killed = 0.0, best_resume = 0.0;
  double overhead_pct = 1e9;
  bool identical = true;
  const int reps = std::max(2, h.reps_for(3));
  const count_t kill_seg = std::max<count_t>(1, total_segments / 4);
  for (int r = 0; r < reps; ++r) {
    io::StreamGenOptions o = opt;
    o.dir = run_dir.fresh("stream_cold");
    Timer t_cold;
    const auto cold_rep = io::generate_durable(io::real_file_ops(), kp, o);
    const double cold_s = t_cold.seconds();
    if (best_cold < 0 || cold_s < best_cold) best_cold = cold_s;

    o.dir = run_dir.fresh("stream_resume");
    io::FsFaultPlan plan;
    plan.kill_point = "segment:rename:after";
    plan.kill_hits = static_cast<std::uint64_t>(kill_seg);
    io::FaultyFileOps faulty(io::real_file_ops(), plan);

    Timer t_killed;
    bool killed = false;
    try {
      (void)io::generate_durable(faulty, kp, o);
    } catch (const io::killed_at&) {
      killed = true;
    }
    const double killed_s = t_killed.seconds();
    if (!killed) {
      std::printf("FAULT PLAN DID NOT FIRE — instance too small?\n");
      return 1;
    }

    o.resume = true;
    Timer t_resume;
    const auto rep = io::generate_durable(io::real_file_ops(), kp, o);
    const double resume_s = t_resume.seconds();

    identical = identical &&
                rep.manifest.shards.size() == cold_rep.manifest.shards.size();
    for (std::size_t s = 0; identical && s < rep.manifest.shards.size(); ++s) {
      identical = rep.manifest.shards[s].chain_hash ==
                      cold_rep.manifest.shards[s].chain_hash &&
                  rep.manifest.shards[s].edges ==
                      cold_rep.manifest.shards[s].edges;
    }

    const double over = (killed_s + resume_s - cold_s) / cold_s * 100.0;
    if (over < overhead_pct) {
      overhead_pct = over;
      best_total = killed_s + resume_s;
      best_killed = killed_s;
      best_resume = resume_s;
    }
  }
  h.time_value("cold_generate", best_cold);
  h.time_value("interrupted_total", best_total);
  const double eps = static_cast<double>(total_entries) / best_cold;
  h.counter("edges_per_sec", eps);
  std::printf("cold run: %s in %s  (%s records/sec, validation 1-in-%llu)\n",
              format_count(total_entries).c_str(),
              format_duration(best_cold).c_str(),
              format_count(static_cast<count_t>(eps)).c_str(),
              static_cast<unsigned long long>(opt.sample_rate));
  h.counter("resume_overhead_pct", overhead_pct);
  h.counter("resume_bit_identical", identical ? 1.0 : 0.0);
  std::printf("interrupted at segment %lld/%lld, resumed: %s + %s = %s  "
              "(overhead %+.2f%% vs paired cold run, store %s)\n",
              static_cast<long long>(kill_seg),
              static_cast<long long>(total_segments),
              format_duration(best_killed).c_str(),
              format_duration(best_resume).c_str(),
              format_duration(best_total).c_str(), overhead_pct,
              identical ? "chain-hash identical" : "DIVERGED");

  // -------------------------------------------------------------------
  // Pure restart cost: resuming a complete store generates nothing — the
  // whole run is manifest scan + segment re-checksum.
  {
    io::StreamGenOptions o = opt;
    o.dir = run_dir.fresh("stream_scan");
    (void)io::generate_durable(io::real_file_ops(), kp, o);
    o.resume = true;
    const auto scan = h.time_section(
        "resume_scan",
        [&] { (void)io::generate_durable(io::real_file_ops(), kp, o); }, 3);
    std::printf("no-op resume (scan + re-checksum only): %s  (%.2f%% of a "
                "cold run)\n",
                format_duration(scan.min_seconds).c_str(),
                scan.min_seconds / best_cold * 100.0);

    const auto verify = h.time_section(
        "verify_store",
        [&] { (void)io::verify_store(io::real_file_ops(), kp, o); }, 3);
    std::printf("offline verify_store (full oracle replay): %s\n",
                format_duration(verify.min_seconds).c_str());
  }

  std::printf("\nresume overhead %+.2f%% (budget 5%%) — the durable store "
              "costs one\nre-generated segment plus a checksum scan, never "
              "a restart from zero.\n",
              overhead_pct);
  if (!identical) return 1;
  if (overhead_pct > 5.0) {
    std::printf("RESUME OVERHEAD EXCEEDS the 5%% budget\n");
    return 1;
  }
  return 0;
}
