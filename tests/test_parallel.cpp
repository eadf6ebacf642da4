// Tests for the thread pool and parallel loop helpers.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include "kronlab/common/error.hpp"
#include "kronlab/parallel/parallel_for.hpp"
#include "kronlab/parallel/thread_pool.hpp"

namespace kronlab {
namespace {

TEST(ThreadPool, SizeIsAtLeastOne) {
  ThreadPool p0(0);
  EXPECT_GE(p0.size(), 1u);
  ThreadPool p4(4);
  EXPECT_EQ(p4.size(), 4u);
}

TEST(ThreadPool, RunInvokesEveryWorkerOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.run([&](std::size_t id) { ++hits[id]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RunPropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.run([](std::size_t id) {
        if (id == 1) throw domain_error("worker failed");
      }),
      domain_error);
  // Pool remains usable after the failure.
  std::atomic<int> ok{0};
  pool.run([&](std::size_t) { ++ok; });
  EXPECT_EQ(ok.load(), 3);
}

TEST(ThreadPool, SingleThreadedPoolRunsInline) {
  ThreadPool pool(1);
  int x = 0;
  pool.run([&](std::size_t id) {
    EXPECT_EQ(id, 0u);
    x = 42;
  });
  EXPECT_EQ(x, 42);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const index_t n = 100000;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  parallel_for(0, n, [&](index_t i) { ++hits[static_cast<std::size_t>(i)]; },
               pool);
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyAndSingletonRanges) {
  std::atomic<int> count{0};
  parallel_for(5, 5, [&](index_t) { ++count; });
  EXPECT_EQ(count.load(), 0);
  parallel_for(7, 8, [&](index_t i) {
    EXPECT_EQ(i, 7);
    ++count;
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelForRange, ChunksPartitionTheRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(9000);
  parallel_for_range(
      0, 9000,
      [&](index_t b, index_t e) {
        for (index_t i = b; i < e; ++i) ++hits[static_cast<std::size_t>(i)];
      },
      pool);
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ParallelReduce, MatchesSerialSum) {
  ThreadPool pool(4);
  const index_t n = 50000;
  const auto total = parallel_reduce<long long>(
      0, n, 0LL, [](index_t i) { return static_cast<long long>(i); },
      [](long long a, long long b) { return a + b; }, pool);
  EXPECT_EQ(total, static_cast<long long>(n) * (n - 1) / 2);
}

TEST(ParallelReduce, EmptyRangeReturnsInit) {
  const auto v = parallel_reduce<int>(
      3, 3, 99, [](index_t) { return 1; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(v, 99);
}

TEST(ExclusiveScan, ComputesOffsetsAndTotal) {
  std::vector<long long> v{3, 0, 5, 2};
  const auto total = exclusive_scan_inplace(v);
  EXPECT_EQ(total, 10);
  EXPECT_EQ(v, (std::vector<long long>{0, 3, 3, 8}));
}

TEST(ThreadPool, ConcurrentExternalCallersSerialize) {
  // Regression: simulated distributed ranks are plain threads that each
  // invoke parallel kernels on the same pool.  Unserialized, two callers
  // overwrite each other's job pointer and completion count — one of them
  // then waits on a completion signal that never fires (deadlock found by
  // running the dist suites under TSan with KRONLAB_THREADS=4).
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr int kRounds = 25;
  const index_t n = 2000;
  std::vector<std::thread> callers;
  std::vector<long long> results(kCallers * kRounds, -1);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        results[static_cast<std::size_t>(c * kRounds + round)] =
            parallel_reduce<long long>(
                0, n, 0LL,
                [](index_t i) { return static_cast<long long>(i); },
                [](long long a, long long b) { return a + b; }, pool);
      }
    });
  }
  for (auto& t : callers) t.join();
  const long long expect = static_cast<long long>(n) * (n - 1) / 2;
  for (const auto r : results) EXPECT_EQ(r, expect);
}

TEST(GlobalPool, ThreadCountIsAWholePositiveDecimal) {
  EXPECT_EQ(parse_thread_count("4"), std::optional<std::size_t>(4));
  EXPECT_EQ(parse_thread_count("16"), std::optional<std::size_t>(16));
  for (const char* bad : {"4x", "", "0", "-2", "abc", "+4", " 4", "4 ",
                          "99999999999999999999999"}) {
    EXPECT_EQ(parse_thread_count(bad), std::nullopt) << '"' << bad << '"';
  }
}

TEST(GlobalPool, IsSingletonAndUsable) {
  auto& a = global_pool();
  auto& b = global_pool();
  EXPECT_EQ(&a, &b);
  std::atomic<int> n{0};
  a.run([&](std::size_t) { ++n; });
  EXPECT_EQ(n.load(), static_cast<int>(a.size()));
}

} // namespace
} // namespace kronlab
