// perfbench/src/workload_count.cpp
//
// count: the paper's mutual-validation loop on a ~720k-edge product.  One
// op materializes C, counts its 4-cycles directly (vertex, edge, global),
// evaluates the factored ground truth (Thms 3–5), and runs a 4-rank
// in-process dist::run that generates row shards, counts them with the
// ghost-row exchange and sums the distributed ground truth.  graph and
// dist do almost all the work; io and serve none.
//
// Checks per op: direct == factored for every vertex and every edge, and
// direct == factored == distributed for the global count.

#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "kronlab/dist/sharded.hpp"
#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/graph/blocked.hpp"
#include "kronlab/graph/butterflies.hpp"
#include "kronlab/kron/ground_truth.hpp"
#include "kronlab/kron/partition.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace kronlab;

constexpr index_t kRanks = 4;

struct State {
  explicit State(kron::BipartiteKronecker product)
      : kp(std::move(product)), parts(kp, kRanks) {}

  kron::BipartiteKronecker kp;
  kron::PartitionedStream parts;
};

std::unique_ptr<State> build(const Options& opt) {
  Rng rng(opt.seed);
  auto a = opt.tiny ? gen::random_nonbipartite_connected(10, 20, rng)
                    : gen::random_nonbipartite_connected(150, 400, rng);
  auto b = opt.tiny ? gen::connected_random_bipartite(12, 12, 40, rng)
                    : gen::connected_random_bipartite(180, 180, 900, rng);
  return std::make_unique<State>(
      kron::BipartiteKronecker::raw(std::move(a), std::move(b)));
}

/// Per-op dist figures: the slowest rank of each call, and the exchange
/// counters summed over ranks.
struct DistRecord {
  double generate_ms = 0, count_ms = 0, truth_ms = 0;
  double imbalance = 0; ///< slowest / mean rank count time
  double backoff_s = 0;
  double retries = 0;
  double frames = 0, batches = 0;
};

/// Direct per-edge counts agree with the factored materialization on C's
/// structure.  The factored side drops structural zeros, so an entry
/// missing there must be zero on the direct side.
bool same_on_structure(const grb::Csr<count_t>& direct,
                       const grb::Csr<count_t>& factored) {
  if (direct.nrows() != factored.nrows()) return false;
  for (index_t p = 0; p < direct.nrows(); ++p) {
    const auto dc = direct.row_cols(p);
    const auto dv = direct.row_vals(p);
    const auto fc = factored.row_cols(p);
    const auto fv = factored.row_vals(p);
    std::size_t f = 0;
    for (std::size_t d = 0; d < dc.size(); ++d) {
      if (f < fc.size() && fc[f] == dc[d]) {
        if (fv[f++] != dv[d]) return false;
      } else if (dv[d] != 0) {
        return false;
      }
    }
    if (f != fc.size()) return false;
  }
  return true;
}

double ms_since(double t0) { return (now_seconds() - t0) * 1e3; }

bool count_pass(const State& s, const Options& opt, DistRecord& out) {
  trace::Span op("op.count");
  graph::Adjacency c;
  {
    trace::Span span("grb.materialize");
    c = s.kp.materialize();
  }
  grb::Vector<count_t> vertex;
  grb::Csr<count_t> edge;
  count_t global = 0;
  {
    trace::Span span("graph.vertex_butterflies");
    vertex = graph::vertex_butterflies(c);
  }
  {
    trace::Span span("graph.edge_butterflies");
    edge = graph::edge_butterflies(c);
  }
  {
    trace::Span span("graph.global_butterflies");
    global = graph::global_butterflies(c);
  }
  if (opt.inject_fault) ++global;

  grb::Vector<count_t> vertex_truth;
  grb::Csr<count_t> edge_truth;
  count_t global_truth = 0;
  {
    trace::Span span("kron.ground_truth");
    vertex_truth = kron::vertex_squares(s.kp).materialize();
    edge_truth = kron::edge_squares(s.kp).materialize();
    global_truth = kron::global_squares(s.kp);
  }

  struct RankTimes {
    double generate_ms = 0, count_ms = 0, truth_ms = 0;
    dist::ExchangeStats exchange;
    count_t counted = -1, truth = -1;
  };
  std::vector<RankTimes> ranks(kRanks);
  {
    trace::Span span("dist.run");
    const trace::SpanId parent = span.id();
    dist::run(kRanks, [&](dist::Comm& comm) {
      RankTimes& t = ranks[static_cast<std::size_t>(comm.rank())];
      dist::Shard shard;
      double t0 = now_seconds();
      {
        trace::Span rank_span("dist.generate_shard", parent);
        shard = dist::generate_shard(s.kp, s.parts, comm.rank());
      }
      t.generate_ms = ms_since(t0);
      t0 = now_seconds();
      {
        trace::Span rank_span("dist.count", parent);
        t.counted =
            dist::distributed_global_butterflies(comm, shard, {}, &t.exchange);
      }
      t.count_ms = ms_since(t0);
      t0 = now_seconds();
      {
        trace::Span rank_span("dist.ground_truth", parent);
        t.truth = dist::distributed_ground_truth_squares(comm, s.kp, s.parts);
      }
      t.truth_ms = ms_since(t0);
    });
  }

  out = {};
  double count_sum = 0;
  bool dist_ok = true;
  for (const auto& t : ranks) {
    out.generate_ms = std::max(out.generate_ms, t.generate_ms);
    out.count_ms = std::max(out.count_ms, t.count_ms);
    out.truth_ms = std::max(out.truth_ms, t.truth_ms);
    count_sum += t.count_ms;
    out.backoff_s += t.exchange.backoff_seconds;
    out.retries += static_cast<double>(t.exchange.retries);
    out.frames += static_cast<double>(t.exchange.agg.frames_enqueued);
    out.batches += static_cast<double>(t.exchange.agg.batches_sent);
    dist_ok = dist_ok && t.counted == global && t.truth == global;
  }
  out.imbalance = out.count_ms / (count_sum / static_cast<double>(kRanks));
  return dist_ok && global == global_truth && vertex == vertex_truth &&
         same_on_structure(edge, edge_truth);
}

/// Layer probe: the degree ordering every blocked kernel starts from.
trace::SpanId layer_probes(const State& s) {
  const auto c = s.kp.materialize();
  trace::Span root("probes.count");
  for (int r = 0; r < 3; ++r) {
    trace::Span span("graph.degree_order");
    const graph::DegreeOrder order(c);
    (void)order;
  }
  return root.id();
}

} // namespace

Result run_count(const Options& opt) {
  Result r;
  double setup_s = 0;
  const int reps = opt.mode == Mode::timed ? 101 : 5;
  auto state = repeated_setup(reps, setup_s, [&] { return build(opt); });
  const State& s = *state;
  r.context["instance"] = json_string(
      opt.tiny ? "rnonbip(10,20) (x) cbip(12,12,40)"
               : "rnonbip(150,400) (x) cbip(180,180,900)");
  r.context["vertices"] = json_number(static_cast<double>(s.kp.num_vertices()));
  r.context["edges"] = json_number(static_cast<double>(s.kp.num_edges()));
  r.context["records"] =
      json_number(static_cast<double>(s.kp.left().nnz() * s.kp.right().nnz()));
  r.context["ranks"] = json_number(kRanks);

  std::vector<DistRecord> dist_log; // traced ops only
  const auto op = [&] {
    DistRecord d;
    const bool ok = count_pass(s, opt, d);
    if (trace::enabled()) dist_log.push_back(d);
    return ok;
  };

  if (opt.mode == Mode::timed) {
    count_ops(r, run_for(0, op)); // warm-up op, checked but not timed
    const OpLog log = run_for(opt.seconds, op);
    count_ops(r, log);
    const double op_s = median(log.seconds);
    add_end_to_end(r, static_cast<double>(s.kp.num_edges()) / op_s,
                   op_s * 1e3, setup_s);
    return r;
  }

  const trace::SpanId root = traced_ops(r, opt, "run.count", op);
  const trace::SpanId probes_root = layer_probes(s);
  trace::set_enabled(false);

  const auto spans = trace::collect();
  const auto loop = trace::summarize(spans, root);
  const auto probes = trace::summarize(spans, probes_root);
  trace::print_table(spans, root, "count, traced ops");
  trace::print_table(spans, probes_root, "count, layer probes");

  DistRecord sum;
  for (const auto& d : dist_log) {
    sum.generate_ms += d.generate_ms;
    sum.count_ms += d.count_ms;
    sum.truth_ms += d.truth_ms;
    sum.imbalance += d.imbalance;
    sum.backoff_s += d.backoff_s;
    sum.retries += d.retries;
    sum.frames += d.frames;
    sum.batches += d.batches;
  }
  const double n = std::max<double>(1.0, static_cast<double>(dist_log.size()));
  auto& m = r.metrics;
  m["kron.materialize_ms"] = {trace::mean_ms(loop, "grb.materialize"), "ms"};
  m["kron.ground_truth_ms"] = {trace::mean_ms(loop, "kron.ground_truth"),
                               "ms"};
  m["graph.degree_order_ms"] = {trace::mean_ms(probes, "graph.degree_order"),
                                "ms"};
  for (const char* kernel :
       {"vertex_butterflies", "edge_butterflies", "global_butterflies"}) {
    const std::string name = std::string("graph.") + kernel;
    m[name + "_ms"] = {trace::mean_ms(loop, name), "ms"};
  }
  m["dist.generate_shard_ms"] = {sum.generate_ms / n, "ms"};
  m["dist.count_ms"] = {sum.count_ms / n, "ms"};
  m["dist.ground_truth_ms"] = {sum.truth_ms / n, "ms"};
  m["dist.rank_imbalance"] = {sum.imbalance / n, "ratio"};
  m["dist.backoff_s"] = {sum.backoff_s / n, "s"};
  m["dist.retries"] = {sum.retries / n, "count"};
  m["dist.frames_per_batch"] = {
      sum.batches > 0 ? sum.frames / sum.batches : 0, "ratio"};
  return r;
}

} // namespace perfbench
