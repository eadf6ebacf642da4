// Tests for the obs/trace subsystem: disabled-mode inertness, span
// nesting from pooled workers, ring-buffer wrap accounting, binary
// round-trips, Chrome JSON export, multi-file merge, and the distributed
// runtime's fault/retry annotations lining up event-for-event with the
// runtime's own fault statistics.
//
// CI runs this suite under TSan: concurrent span emission from pool
// workers and rank threads against a quiescent-snapshot reader is exactly
// the race surface the ring buffers claim to handle.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "kronlab/dist/comm.hpp"
#include "kronlab/dist/sharded.hpp"
#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/kron/ground_truth.hpp"
#include "kronlab/obs/stats.hpp"
#include "kronlab/obs/trace.hpp"
#include "kronlab/parallel/parallel_for.hpp"

namespace kronlab::trace {
namespace {

/// Every test records into a clean, enabled registry and leaves tracing
/// off for the rest of the process (other suites must not pay for it).
class TraceTest : public ::testing::Test {
protected:
  void SetUp() override {
    reset();
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    reset();
    set_buffer_capacity(16384);
  }
};

std::vector<TraceEvent> events_of_kind(const std::vector<TraceEvent>& evs,
                                       Kind kind) {
  std::vector<TraceEvent> out;
  for (const auto& e : evs) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

std::size_t count_named(const std::vector<TraceEvent>& evs,
                        const std::string& name) {
  std::size_t n = 0;
  for (const auto& e : evs) n += e.name == name ? 1 : 0;
  return n;
}

/// Spans on one thread must be properly nested: any two either disjoint
/// or one containing the other.
void expect_well_nested(const std::vector<TraceEvent>& evs) {
  std::map<std::uint32_t, std::vector<const TraceEvent*>> by_tid;
  for (const auto& e : evs) {
    if (e.kind == Kind::span) by_tid[e.tid].push_back(&e);
  }
  for (auto& [tid, spans] : by_tid) {
    std::stable_sort(spans.begin(), spans.end(),
                     [](const TraceEvent* a, const TraceEvent* b) {
                       if (a->ts_ns != b->ts_ns) return a->ts_ns < b->ts_ns;
                       return a->dur_ns > b->dur_ns;
                     });
    std::vector<const TraceEvent*> stack;
    for (const TraceEvent* e : spans) {
      while (!stack.empty() &&
             stack.back()->ts_ns + stack.back()->dur_ns <= e->ts_ns) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        // Enclosing span must fully contain this one.
        EXPECT_LE(stack.back()->ts_ns, e->ts_ns);
        EXPECT_GE(stack.back()->ts_ns + stack.back()->dur_ns,
                  e->ts_ns + e->dur_ns)
            << "span " << e->name << " straddles the end of "
            << stack.back()->name << " on tid " << tid;
      }
      stack.push_back(e);
    }
  }
}

// ---------------------------------------------------------------------------
// Enable/disable semantics.

TEST_F(TraceTest, DisabledModeRecordsNothing) {
  set_enabled(false);
  {
    Span s("test", "ignored");
    instant("test", "ignored");
    counter("test", "ignored", 1.0);
    KRONLAB_TRACE_SPAN("test", "macro_ignored");
  }
  EXPECT_TRUE(snapshot().empty());
  EXPECT_EQ(dropped_events(), 0u);
}

TEST_F(TraceTest, SpanEnabledAtConstructionRecordsOnceAtDestruction) {
  {
    Span s("test", "outer");
    EXPECT_TRUE(snapshot().empty()); // nothing until the span closes
  }
  const auto evs = snapshot();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].name, "outer");
  EXPECT_EQ(evs[0].cat, "test");
  EXPECT_EQ(evs[0].kind, Kind::span);
}

TEST_F(TraceTest, NestedSpansAreWellNestedAndOrdered) {
  {
    Span outer("test", "outer");
    {
      Span inner("test", "inner");
      instant("test", "tick", intern(std::string("detail=") + "x"));
    }
    { Span sibling("test", "sibling"); }
  }
  const auto evs = snapshot();
  ASSERT_EQ(evs.size(), 4u);
  expect_well_nested(evs);
  const auto spans = events_of_kind(evs, Kind::span);
  ASSERT_EQ(spans.size(), 3u);
  // snapshot() sorts by begin timestamp: outer starts first.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_GE(spans[0].dur_ns, spans[1].dur_ns);
  const auto ticks = events_of_kind(evs, Kind::instant);
  ASSERT_EQ(ticks.size(), 1u);
  EXPECT_EQ(ticks[0].detail, "detail=x");
}

TEST_F(TraceTest, CountersCarryValues) {
  counter("test", "progress", 0.25);
  counter("test", "progress", 0.75);
  const auto evs = events_of_kind(snapshot(), Kind::counter);
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_DOUBLE_EQ(evs[0].value, 0.25);
  EXPECT_DOUBLE_EQ(evs[1].value, 0.75);
}

// ---------------------------------------------------------------------------
// Concurrent emission from pooled workers.

TEST_F(TraceTest, PooledWorkerSpansAreWellNestedPerThread) {
  {
    KRONLAB_KERNEL("trace_test_kernel");
    std::atomic<long> sink{0};
    parallel_for_dynamic(0, 200000,
                         [&](index_t i) {
                           sink.fetch_add(i % 7, std::memory_order_relaxed);
                         });
  }
  const auto evs = snapshot(); // pool joined: quiescent
  expect_well_nested(evs);
  // The KernelScope span appears with cat "kernel", and each worker that
  // participated contributed one "parallel" span labelled with the kernel.
  std::size_t kernel_spans = 0, worker_spans = 0;
  for (const auto& e : evs) {
    if (e.kind != Kind::span) continue;
    if (e.cat == "kernel") ++kernel_spans;
    if (e.cat == "parallel") ++worker_spans;
  }
  EXPECT_EQ(kernel_spans, 1u);
  if (global_pool().size() > 1) {
    EXPECT_GE(worker_spans, 1u);
    // Worker spans nest inside the kernel span's interval.
    const TraceEvent* kernel = nullptr;
    for (const auto& e : evs) {
      if (e.kind == Kind::span && e.cat == "kernel") kernel = &e;
    }
    ASSERT_NE(kernel, nullptr);
    for (const auto& e : evs) {
      if (e.kind != Kind::span || e.cat != "parallel") continue;
      EXPECT_EQ(e.name, "trace_test_kernel");
      EXPECT_GE(e.ts_ns, kernel->ts_ns);
      EXPECT_LE(e.ts_ns + e.dur_ns, kernel->ts_ns + kernel->dur_ns);
    }
  }
}

TEST_F(TraceTest, RingWrapKeepsNewestEventsAndCountsDrops) {
  set_buffer_capacity(32);
  std::thread t([] {
    set_thread_name("wrapper");
    for (int i = 0; i < 100; ++i) {
      instant("test", i >= 68 ? "kept" : "lost");
    }
  });
  t.join();
  const auto evs = snapshot();
  std::size_t kept = 0;
  for (const auto& e : evs) {
    if (e.thread_name != "wrapper") continue;
    ++kept;
    EXPECT_EQ(e.name, "kept"); // oldest events were overwritten
  }
  EXPECT_EQ(kept, 32u);
  EXPECT_EQ(dropped_events(), 68u);
}

// ---------------------------------------------------------------------------
// Export formats.

TEST_F(TraceTest, BinaryRoundTripIsLossless) {
  set_thread_name("main");
  {
    Span s("cat_a", "span_one", intern("path=/tmp/x"));
    instant("cat_b", "mark");
  }
  counter("cat_c", "value", 42.5);
  const auto before = snapshot();
  ASSERT_EQ(before.size(), 3u);

  const auto path = (std::filesystem::temp_directory_path() /
                     "kronlab_test_roundtrip.trace")
                        .string();
  write_binary_file(path, before);
  const TraceFile after = read_binary_file(path);
  std::filesystem::remove(path);

  EXPECT_GT(after.epoch_unix_ns, 0u);
  ASSERT_EQ(after.events.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after.events[i].ts_ns, before[i].ts_ns);
    EXPECT_EQ(after.events[i].dur_ns, before[i].dur_ns);
    EXPECT_EQ(after.events[i].kind, before[i].kind);
    EXPECT_EQ(after.events[i].tid, before[i].tid);
    EXPECT_DOUBLE_EQ(after.events[i].value, before[i].value);
    EXPECT_EQ(after.events[i].name, before[i].name);
    EXPECT_EQ(after.events[i].cat, before[i].cat);
    EXPECT_EQ(after.events[i].detail, before[i].detail);
    EXPECT_EQ(after.events[i].thread_name, before[i].thread_name);
  }
}

TEST_F(TraceTest, CorruptBinaryFilesAreRejected) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto missing = (dir / "kronlab_test_missing.trace").string();
  std::filesystem::remove(missing);
  EXPECT_THROW(read_binary_file(missing), io_error);

  const auto bad = (dir / "kronlab_test_badmagic.trace").string();
  {
    std::FILE* f = std::fopen(bad.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("definitely not a trace", f);
    std::fclose(f);
  }
  EXPECT_THROW(read_binary_file(bad), io_error);
  std::filesystem::remove(bad);
}

TEST_F(TraceTest, ChromeJsonCarriesEventsAndSchema) {
  { Span s("kernels", "spgemm"); }
  instant("dist", "fault/drop", intern("from=0 to=1 tag=7 seq=3"));
  const auto json = chrome_json(snapshot());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"kronlab-trace-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch_unix_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"spgemm\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("fault/drop"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos); // thread names
}

TEST_F(TraceTest, MergeAlignsEpochsAndSeparatesThreads) {
  TraceFile a;
  a.epoch_unix_ns = 1000000;
  TraceEvent ea;
  ea.ts_ns = 10;
  ea.tid = 0;
  ea.name = "a";
  ea.cat = "test";
  ea.thread_name = "rank 0";
  a.events.push_back(ea);

  TraceFile b;
  b.epoch_unix_ns = 1000500; // started 500ns later on the shared clock
  TraceEvent eb = ea;
  eb.name = "b";
  eb.thread_name = "rank 1";
  b.events.push_back(eb);

  const auto merged = merge({a, b});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].name, "a");
  EXPECT_EQ(merged[0].ts_ns, 10u);
  EXPECT_EQ(merged[1].name, "b");
  EXPECT_EQ(merged[1].ts_ns, 510u); // shifted onto a's epoch
  EXPECT_NE(merged[0].tid, merged[1].tid); // tracks never collide
}

// ---------------------------------------------------------------------------
// Distributed runtime annotations.

TEST_F(TraceTest, DroppedMessagesEmitOneAnnotationEach) {
  dist::FaultPlan plan;
  plan.seed = 7;
  plan.drop = 0.3;
  std::atomic<std::int64_t> dropped{0};
  dist::run(2, plan, [&](dist::Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 200; ++i) comm.send(1, 1, {i});
      comm.barrier();
    } else {
      comm.barrier();
      while (comm.recv_deadline(0, 1, std::chrono::milliseconds(5))) {
      }
      dropped = comm.fault_stats().dropped;
    }
  });
  const auto evs = snapshot();
  EXPECT_GT(dropped.load(), 0);
  EXPECT_EQ(count_named(evs, "fault/drop"),
            static_cast<std::size_t>(dropped.load()));
  // Annotations carry the channel coordinates for the timeline.
  for (const auto& e : evs) {
    if (e.name != "fault/drop") continue;
    EXPECT_NE(e.detail.find("from=0"), std::string::npos);
    EXPECT_NE(e.detail.find("seq="), std::string::npos);
  }
  // Rank threads announce themselves on the timeline.
  std::size_t rank_spans = 0;
  for (const auto& e : evs) {
    if (e.kind == Kind::span && e.name == "rank") {
      ++rank_spans;
      EXPECT_TRUE(e.thread_name == "rank 0" || e.thread_name == "rank 1");
    }
  }
  EXPECT_EQ(rank_spans, 2u);
}

TEST_F(TraceTest, ExchangeRetriesEmitOneAnnotationEach) {
  Rng rng(21);
  const auto kp = kron::BipartiteKronecker::raw(
      gen::random_nonbipartite_connected(16, 40, rng),
      gen::random_bipartite(5, 5, 12, rng));
  const count_t expect = kron::global_squares(kp);
  const kron::PartitionedStream ps(kp, 4);

  dist::FaultPlan plan;
  plan.seed = 99;
  plan.drop = 0.2;
  plan.duplicate = 0.2;
  std::atomic<std::int64_t> retries{0};
  std::atomic<std::int64_t> dup_requests{0};
  dist::run(4, plan, [&](dist::Comm& comm) {
    const auto shard = dist::generate_shard(kp, ps, comm.rank());
    dist::ExchangeStats stats;
    const count_t counted =
        dist::distributed_global_butterflies(comm, shard, {}, &stats);
    EXPECT_EQ(counted, expect);
    retries += stats.retries;
    dup_requests += stats.dup_requests;
  });
  const auto evs = snapshot();
  EXPECT_EQ(count_named(evs, "exchange/retry"),
            static_cast<std::size_t>(retries.load()));
  EXPECT_EQ(count_named(evs, "exchange/dup_request"),
            static_cast<std::size_t>(dup_requests.load()));
  for (const auto& e : evs) {
    if (e.name != "exchange/retry") continue;
    EXPECT_NE(e.detail.find("epoch="), std::string::npos);
    EXPECT_NE(e.detail.find("attempt="), std::string::npos);
  }
  // The exchange itself shows up as one span per rank.
  EXPECT_EQ(count_named(evs, "ghost_exchange"), 4u);
}

} // namespace
} // namespace kronlab::trace
