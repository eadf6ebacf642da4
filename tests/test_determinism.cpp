// Scheduling determinism: dynamic chunk assignment varies run to run, but
// results must not.  Every counter and reduction is required to produce
// bit-identical output across pool sizes 1, 2, and hardware concurrency,
// and across repeated runs on the same pool.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/graph/bipartite_clustering.hpp"
#include "kronlab/graph/butterflies.hpp"
#include "kronlab/graph/graph.hpp"
#include "kronlab/grb/ops.hpp"
#include "kronlab/kron/ground_truth.hpp"
#include "kronlab/parallel/parallel_for.hpp"
#include "kronlab/parallel/thread_pool.hpp"

namespace kronlab {
namespace {

std::vector<std::size_t> pool_sizes() {
  std::vector<std::size_t> sizes{1, 2};
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  if (hw != 1 && hw != 2) sizes.push_back(hw);
  return sizes;
}

// Heavy-tailed test graph: hubs make chunk-to-worker assignment matter.
graph::Adjacency skewed_graph() {
  Rng rng(17);
  return gen::preferential_bipartite(60, 80, 600, rng);
}

TEST(Determinism, VertexButterfliesIdenticalAcrossPoolSizes) {
  const auto a = skewed_graph();
  const auto reference = graph::vertex_butterflies(a);
  for (const std::size_t threads : pool_sizes()) {
    ThreadPool pool(threads);
    ScopedPoolOverride use_pool(pool);
    for (int rep = 0; rep < 3; ++rep) {
      ASSERT_EQ(graph::vertex_butterflies(a), reference)
          << "pool size " << threads << " rep " << rep;
    }
  }
}

TEST(Determinism, EdgeButterfliesIdenticalAcrossPoolSizes) {
  const auto a = skewed_graph();
  const auto reference = graph::edge_butterflies(a);
  for (const std::size_t threads : pool_sizes()) {
    ThreadPool pool(threads);
    ScopedPoolOverride use_pool(pool);
    ASSERT_EQ(graph::edge_butterflies(a), reference)
        << "pool size " << threads;
  }
}

TEST(Determinism, GlobalButterfliesIdenticalAcrossPoolSizes) {
  const auto a = skewed_graph();
  const auto reference = graph::global_butterflies(a);
  for (const std::size_t threads : pool_sizes()) {
    ThreadPool pool(threads);
    ScopedPoolOverride use_pool(pool);
    for (int rep = 0; rep < 3; ++rep) {
      ASSERT_EQ(graph::global_butterflies(a), reference)
          << "pool size " << threads << " rep " << rep;
    }
  }
}

TEST(Determinism, FormulaPipelineIdenticalAcrossPoolSizes) {
  // Exercises mxm / mxv / formula kernels through the dynamic dispatcher.
  const auto a = skewed_graph();
  const auto ref_vertex = kron::vertex_squares_formula(a);
  const auto ref_edge = kron::edge_squares_formula(a);
  for (const std::size_t threads : pool_sizes()) {
    ThreadPool pool(threads);
    ScopedPoolOverride use_pool(pool);
    ASSERT_EQ(kron::vertex_squares_formula(a), ref_vertex)
        << "pool size " << threads;
    ASSERT_EQ(kron::edge_squares_formula(a), ref_edge)
        << "pool size " << threads;
  }
}

TEST(Determinism, ClusteringReductionIdenticalAcrossPoolSizes) {
  const auto a = skewed_graph();
  const auto reference = graph::three_paths(a);
  for (const std::size_t threads : pool_sizes()) {
    ThreadPool pool(threads);
    ScopedPoolOverride use_pool(pool);
    ASSERT_EQ(graph::three_paths(a), reference) << "pool size " << threads;
  }
}

TEST(Determinism, DynamicReduceIdenticalAcrossGrainsAndPools) {
  const index_t n = 50000;
  const auto body = [](index_t i) -> count_t { return (i * 2654435761u) >> 7; };
  const auto combine = [](count_t x, count_t y) { return x + y; };
  count_t reference = 0;
  for (index_t i = 0; i < n; ++i) reference = combine(reference, body(i));
  for (const std::size_t threads : pool_sizes()) {
    ThreadPool pool(threads);
    for (const index_t grain : {index_t{0}, index_t{1}, index_t{97}}) {
      ASSERT_EQ(parallel_reduce<count_t>(0, n, 0, body, combine, pool, grain),
                reference)
          << "pool size " << threads << " grain " << grain;
    }
  }
}

} // namespace
} // namespace kronlab
