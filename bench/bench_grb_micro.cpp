// X3: google-benchmark microbenchmarks for the grb kernels the ground-truth
// pipeline is built from: mxv, SpGEMM, Hadamard, Kronecker product, and the
// factor-statistics bundle.  Per-kernel parallel metrics (chunk counts,
// busy time, load imbalance) accumulate across all iterations and are
// dumped after the benchmark table.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness/harness.hpp"
#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/graph/butterflies.hpp"
#include "kronlab/grb/kron.hpp"
#include "kronlab/grb/ops.hpp"
#include "kronlab/kron/ground_truth.hpp"

using namespace kronlab;

namespace {

graph::Adjacency factor(index_t scale) {
  Rng rng(42 + static_cast<std::uint64_t>(scale));
  return gen::preferential_bipartite(4 * scale, 6 * scale, 20 * scale, rng);
}

void BM_Mxv(benchmark::State& state) {
  const auto a = factor(state.range(0));
  const auto x = grb::ones<count_t>(a.ncols());
  for (auto _ : state) {
    benchmark::DoNotOptimize(grb::mxv(a, x));
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_Mxv)->Arg(4)->Arg(16)->Arg(64);

void BM_Spgemm(benchmark::State& state) {
  const auto a = factor(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(grb::mxm(a, a));
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_Spgemm)->Arg(4)->Arg(16)->Arg(64);

void BM_Hadamard(benchmark::State& state) {
  const auto a = factor(state.range(0));
  const auto a2 = grb::mxm(a, a);
  const auto a3 = grb::mxm(a2, a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(grb::ewise_mult(a3, a));
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_Hadamard)->Arg(4)->Arg(16)->Arg(64);

void BM_KroneckerMaterialize(benchmark::State& state) {
  const auto a = factor(4);
  const auto b = factor(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(grb::kron(a, b));
  }
  state.SetItemsProcessed(state.iterations() * a.nnz() * b.nnz());
}
BENCHMARK(BM_KroneckerMaterialize)->Arg(2)->Arg(4)->Arg(8);

void BM_FactorStats(benchmark::State& state) {
  const auto a = factor(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kron::FactorStats::compute(a));
  }
}
BENCHMARK(BM_FactorStats)->Arg(4)->Arg(16)->Arg(64);

void BM_DirectButterflies(benchmark::State& state) {
  const auto a = factor(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::vertex_butterflies(a));
  }
}
BENCHMARK(BM_DirectButterflies)->Arg(4)->Arg(16)->Arg(64);

void BM_Transpose(benchmark::State& state) {
  const auto a = factor(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(grb::transpose(a));
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_Transpose)->Arg(4)->Arg(16)->Arg(64);

} // namespace

int main(int argc, char** argv) {
  // Two flag namespaces share argv: --benchmark_* goes to google-benchmark,
  // everything else to the shared harness (which rejects unknown flags).
  std::vector<char*> bm_args{argv[0]};
  std::vector<char*> our_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    (std::strncmp(argv[i], "--benchmark", 11) == 0 ? bm_args : our_args)
        .push_back(argv[i]);
  }
  auto our_argc = static_cast<int>(our_args.size());
  bench::Harness h("grb_micro",
                   bench::parse_args(our_argc, our_args.data()));

  // Quick mode trims each family to its smallest instances; the harness
  // JSON still carries the full per-kernel parallel metrics snapshot.
  std::string quick_filter = "--benchmark_filter=.*/(2|4)$";
  if (h.quick()) bm_args.push_back(quick_filter.data());

  auto bm_argc = static_cast<int>(bm_args.size());
  benchmark::Initialize(&bm_argc, bm_args.data());
  if (benchmark::ReportUnrecognizedArguments(bm_argc, bm_args.data())) {
    return 1;
  }
  const auto run = benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  h.counter("benchmarks_run", static_cast<double>(run));
  std::printf("\n== per-kernel parallel metrics ==\n%s",
              h.metrics_report().c_str());
  return 0;
}
