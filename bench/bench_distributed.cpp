// Distributed validation bench — the extreme-scale workflow in miniature
// (the lineage of [3], [13]: generate shards per rank, run the analytic
// with ghost exchange, validate against generation-time ground truth).
//
// Prints, per rank count: shard balance, distributed-count wall time, and
// the three-way agreement (distributed count == factored ground truth ==
// serial recount).

#include <stdlib.h> // mkdtemp (POSIX)

#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "harness/harness.hpp"
#include "kronlab/common/timer.hpp"
#include "kronlab/dist/sharded.hpp"
#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/graph/butterflies.hpp"
#include "kronlab/io/stream_gen.hpp"
#include "kronlab/kron/ground_truth.hpp"
#include "kronlab/obs/trace.hpp"

using namespace kronlab;

int main(int argc, char** argv) {
  bench::Harness h("distributed", bench::parse_args(argc, argv));
  std::printf("== distributed generation + validated counting ==\n\n");

  Rng rng(515);
  const auto kp = kron::BipartiteKronecker::raw(
      gen::random_nonbipartite_connected(24, 70, rng),
      gen::preferential_bipartite(40, 50, 180, rng));
  const count_t truth = kron::global_squares(kp);
  std::printf("instance: |V_C|=%s |E_C|=%s   ground truth #C4 = %s\n\n",
              format_count(kp.num_vertices()).c_str(),
              format_count(kp.num_edges()).c_str(),
              format_count(truth).c_str());

  Timer t_serial;
  const count_t serial = graph::global_butterflies(kp.materialize());
  const double serial_s = t_serial.seconds();
  h.time_value("serial_recount", serial_s);
  std::printf("serial recount: %s in %s\n\n", format_count(serial).c_str(),
              format_duration(serial_s).c_str());

  std::printf("%6s | %22s | %12s | %s\n", "ranks", "shard entries min/max",
              "count time", "agreement");
  const std::vector<index_t> rank_counts =
      h.quick() ? std::vector<index_t>{1, 4}
                : std::vector<index_t>{1, 2, 4, 8};
  for (const index_t ranks : rank_counts) {
    const kron::PartitionedStream ps(kp, ranks);
    count_t min_e = -1, max_e = 0;
    for (index_t r = 0; r < ranks; ++r) {
      const count_t e = ps.entries_of(r);
      min_e = (min_e < 0 || e < min_e) ? e : min_e;
      max_e = std::max(max_e, e);
    }

    count_t counted = -1, truth_dist = -1;
    Timer t;
    dist::run(ranks, [&](dist::Comm& comm) {
      const auto shard = dist::generate_shard(kp, ps, comm.rank());
      const count_t c = dist::distributed_global_butterflies(comm, shard);
      const count_t g =
          dist::distributed_ground_truth_squares(comm, kp, ps);
      if (comm.rank() == 0) {
        counted = c;
        truth_dist = g;
      }
    });
    const double secs = t.seconds();

    const bool ok = counted == truth && truth_dist == truth;
    h.time_value("distributed_count_ranks" +
                     std::to_string(static_cast<long long>(ranks)),
                 secs);
    std::printf("%6lld | %10s / %-9s | %12s | %s\n",
                static_cast<long long>(ranks),
                format_count(min_e).c_str(), format_count(max_e).c_str(),
                format_duration(secs).c_str(),
                ok ? "exact (count == truth == serial)" : "MISMATCH");
    if (!ok) return 1;
  }
  h.counter("rank_sweeps_exact", 1.0);

  // -------------------------------------------------------------------
  // The aggregated ghost exchange at the highest rank count of the sweep,
  // clean and under the 3% fault plan, with its batching counters: frames
  // bound for one rank coalesce into batched wire messages (the Grappa
  // RDMAAggregator story in miniature).
  const index_t ex_ranks = rank_counts.back();
  std::printf("\n== aggregated ghost exchange (%lld ranks) ==\n\n",
              static_cast<long long>(ex_ranks));
  const kron::PartitionedStream ex_ps(kp, ex_ranks);
  dist::FaultPlan ex_plan;
  ex_plan.seed = 7;
  ex_plan.drop = 0.03;
  ex_plan.duplicate = 0.01;

  struct ExchangeResult {
    double secs = -1.0;
    bool exact = false;
    dist::ExchangeStats xs; // summed across ranks, best rep
  };
  const auto run_exchange = [&](bool faulted) {
    ExchangeResult best;
    for (int rep = 0; rep < 3; ++rep) { // best-of-3 absorbs scheduler noise
      std::mutex mu;
      dist::ExchangeStats sum;
      count_t counted = -1;
      const auto body = [&](dist::Comm& comm) {
        const auto shard = dist::generate_shard(kp, ex_ps, comm.rank());
        dist::ExchangeStats xs;
        const count_t c =
            dist::distributed_global_butterflies(comm, shard, {}, &xs);
        const std::lock_guard<std::mutex> lock(mu);
        sum.retries += xs.retries;
        sum.reply_resends += xs.reply_resends;
        sum.dup_requests += xs.dup_requests;
        sum.dup_replies += xs.dup_replies;
        sum.agg.merge(xs.agg);
        if (comm.rank() == 0) counted = c;
      };
      Timer t;
      if (faulted) {
        dist::run(ex_ranks, ex_plan, body);
      } else {
        dist::run(ex_ranks, body);
      }
      const double secs = t.seconds();
      if (best.secs < 0 || secs < best.secs) {
        best.secs = secs;
        best.xs = sum;
        best.exact = counted == truth;
      }
    }
    return best;
  };

  const auto edges = static_cast<double>(kp.num_edges());
  bool ex_exact = true;
  for (const bool faulted : {false, true}) {
    const auto agg = run_exchange(faulted);
    const char* kind = faulted ? "faulted" : "clean";
    std::printf("%-7s: %s (%s edges/s)\n", kind,
                format_duration(agg.secs).c_str(),
                format_count(static_cast<count_t>(edges / agg.secs)).c_str());
    std::printf("         %s frames -> %s batches (%s coalesced, %s raw); "
                "flushes cap/man=%s/%s\n",
                format_count(agg.xs.agg.frames_enqueued).c_str(),
                format_count(agg.xs.agg.batches_sent).c_str(),
                format_count(agg.xs.agg.rows_coalesced).c_str(),
                format_count(agg.xs.agg.single_flushes).c_str(),
                format_count(agg.xs.agg.capacity_flushes).c_str(),
                format_count(agg.xs.agg.manual_flushes).c_str());
    h.time_value(std::string("exchange_aggregated_") + kind, agg.secs);
    h.counter(std::string("agg_edges_per_sec_") + kind,
              agg.secs > 0 ? edges / agg.secs : 0.0);
    ex_exact = ex_exact && agg.exact;
  }
  h.counter("agg_exchange_exact", ex_exact ? 1.0 : 0.0);
  if (!ex_exact) return 1;

  // -------------------------------------------------------------------
  // Fault-injected recovery: the same pipeline under a hostile network
  // (3% drop, 1% duplicate) with one rank killed while it loads its shard
  // from the durable store.  The supervisor reassigns the dead rank's
  // rows, a survivor loads its shard from the same store, and the count
  // must still be bit-identical to the factored truth.
  std::printf("\n== fault-injected recovery (supervised pipeline) ==\n\n");

  const index_t ft_ranks = 4;
  // A directory of this process's own, so concurrent bench runs never
  // share or delete each other's stores.
  std::string store_dir = (std::filesystem::temp_directory_path() /
                           "kronlab_bench_store_XXXXXX")
                              .string();
  if (::mkdtemp(store_dir.data()) == nullptr) {
    std::perror("bench_distributed: mkdtemp");
    return 1;
  }
  // Generated once, outside both timers; both runs only read it.
  io::StreamGenOptions store_opt;
  store_opt.dir = store_dir;
  store_opt.shards = ft_ranks;
  store_opt.segment_edges = 4096; // several segments per shard
  (void)io::generate_durable(io::real_file_ops(), kp, store_opt);

  dist::RecoveryReport clean_rep;
  Timer t_clean;
  dist::run(ft_ranks, [&](dist::Comm& comm) {
    const kron::PartitionedStream ps(kp, comm.size());
    const auto rep = dist::supervised_global_butterflies(
        comm, kp, ps, io::real_file_ops(), store_dir);
    if (comm.rank() == 0) clean_rep = rep;
  });
  const double clean_s = t_clean.seconds();
  std::printf("clean run   (%lld ranks): %s  verified=%s  reassigned=%s\n",
              static_cast<long long>(ft_ranks),
              format_duration(clean_s).c_str(),
              clean_rep.verified ? "yes" : "NO",
              format_count(clean_rep.left_rows_reassigned).c_str());

  dist::FaultPlan plan;
  plan.seed = 1;
  plan.drop = 0.03;
  plan.duplicate = 0.01;
  plan.kill_rank = 1;
  plan.kill_point = "load-segment";
  plan.kill_hits = 2;

  dist::RecoveryReport rep;
  Timer t_fault;
  dist::run(ft_ranks, plan, [&](dist::Comm& comm) {
    const kron::PartitionedStream ps(kp, comm.size());
    const auto r = dist::supervised_global_butterflies(
        comm, kp, ps, io::real_file_ops(), store_dir);
    if (comm.rank() == 0) rep = r;
  });
  const double fault_s = t_fault.seconds();
  std::filesystem::remove_all(store_dir);

  std::string dead;
  for (const auto r : rep.dead_ranks) {
    if (!dead.empty()) dead += ',';
    dead += std::to_string(r);
  }
  std::printf("faulted run (%lld ranks): %s  verified=%s\n",
              static_cast<long long>(ft_ranks),
              format_duration(fault_s).c_str(),
              rep.verified ? "yes" : "NO");
  std::printf("  plan: drop=3%% dup=1%% kill rank 1 at load-segment (hit 2), "
              "seed=%llu\n",
              static_cast<unsigned long long>(plan.seed));
  std::printf("  injected: %lld dropped, %lld duplicated, %lld delayed\n",
              static_cast<long long>(rep.faults.dropped),
              static_cast<long long>(rep.faults.duplicated),
              static_cast<long long>(rep.faults.delayed));
  std::printf("  recovery: dead ranks {%s}, %s left rows reassigned\n",
              dead.c_str(), format_count(rep.left_rows_reassigned).c_str());
  std::printf("  protocol: %s req retries, %s reply resends, %s dup "
              "requests, %s dup replies absorbed\n",
              format_count(rep.exchange.retries).c_str(),
              format_count(rep.exchange.reply_resends).c_str(),
              format_count(rep.exchange.dup_requests).c_str(),
              format_count(rep.exchange.dup_replies).c_str());
  std::printf("  count: %s vs truth %s — %s\n",
              format_count(rep.counted).c_str(),
              format_count(rep.ground_truth).c_str(),
              rep.counted == truth ? "exact" : "MISMATCH");
  std::printf("  recovery overhead: %.2fx the clean supervised run\n",
              clean_s > 0 ? fault_s / clean_s : 0.0);
  h.time_value("supervised_clean", clean_s);
  h.time_value("supervised_faulted", fault_s);
  h.counter("recovery_overhead_x", clean_s > 0 ? fault_s / clean_s : 0.0);
  h.counter("faulted_run_verified",
            rep.verified && rep.counted == truth ? 1.0 : 0.0);
  if (!rep.verified || rep.counted != truth || !clean_rep.verified) return 1;

  // Under --trace <dir>, split the timeline into per-rank trace files —
  // the miniature of each MPI rank writing its own file — for
  // `kronlab_trace convert` to merge back into one clock-aligned view.
  if (!h.trace_dir().empty()) {
    const auto events = trace::snapshot();
    for (index_t r = 0; r < ft_ranks; ++r) {
      const std::string want = "rank " + std::to_string(r);
      std::vector<trace::TraceEvent> mine;
      for (const auto& e : events) {
        if (e.thread_name == want) mine.push_back(e);
      }
      const std::string path =
          (std::filesystem::path(h.trace_dir()) /
           ("rank_" + std::to_string(r) + ".json"))
              .string();
      trace::write_chrome_file(path, mine);
      std::fprintf(stderr, "[bench harness] wrote %s (%zu events)\n",
                   path.c_str(), mine.size());
    }
  }

  std::printf("\nthe same message pattern (replicated factors, shard-local "
              "generation,\nghost-row exchange, all-reduce of validated "
              "counts) is what the distributed\nGraphBLAS port in the "
              "paper's future work would run per MPI rank.\n");
  return 0;
}
