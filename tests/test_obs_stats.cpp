// Battery for the live-telemetry subsystem (obs/stats, obs/log,
// obs/watchdog).  Four angles:
//
//  1. Golden quantiles: histogram percentiles against an exact sorted
//     reference over seeded samples — the log-bucket scheme must stay
//     within its documented ~3% relative error, and max must be exact.
//  2. Registry soak: many threads hammer a shared counter / gauge /
//     histogram while another thread snapshots live; final totals are
//     exact at quiescence.  Runs under TSan in CI.
//  3. Logger: logfmt shape, level filtering, value quoting, sink
//     capture — the contract the watchdog assertions below depend on.
//  4. Watchdog: a FaultyTransport delay wedges a server request inside
//     its StallGuard; the watchdog must flag it, and must stay silent
//     when requests complete inside the deadline.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "kronlab/common/random.hpp"
#include "kronlab/gen/canonical.hpp"
#include "kronlab/obs/log.hpp"
#include "kronlab/obs/stats.hpp"
#include "kronlab/obs/watchdog.hpp"
#include "kronlab/serve/client.hpp"
#include "kronlab/serve/server.hpp"
#include "kronlab/serve/transport.hpp"

namespace kronlab::obs {
namespace {

// ---------------------------------------------------------------------
// Histogram bucket scheme
// ---------------------------------------------------------------------

TEST(ObsHistogram, BucketSchemeIsMonotoneAndSelfConsistent) {
  // Values below 2^(kSubBits+1) are exact: the bucket midpoint is the
  // value itself.
  for (std::uint64_t v = 0; v < (2u << Histogram::kSubBits); ++v) {
    EXPECT_EQ(Histogram::bucket_mid(Histogram::bucket_of(v)), v) << v;
  }
  // bucket_of is monotone non-decreasing and every midpoint maps back
  // to its own bucket (round-trip stability).
  std::size_t prev = 0;
  for (int shift = 0; shift < 63; ++shift) {
    const std::uint64_t v = 1ull << shift;
    const std::size_t b = Histogram::bucket_of(v);
    EXPECT_GE(b, prev);
    prev = b;
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_mid(b)), b)
        << "midpoint of bucket " << b << " escapes its bucket";
  }
  EXPECT_LT(Histogram::bucket_of(~0ull), Histogram::kBuckets);
}

TEST(ObsHistogram, GoldenQuantilesMatchSortedReference) {
  set_stats_enabled(true);
  stats_reset();
  Histogram& h = histogram("test/golden_quantiles");

  // Log-normal-ish latencies: exponent spread over ~6 decades, the
  // shape real service latencies have.  Seeded, so the expected values
  // are stable run to run.
  Rng rng(0x60D5EED);
  std::vector<std::uint64_t> samples;
  samples.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const double mag = 3.0 + 6.0 * rng.next_double(); // 10^3 .. 10^9 ns
    std::uint64_t v = 1;
    for (double m = 0; m + 1.0 <= mag; m += 1.0) v *= 10;
    v += rng.next_below(9 * v + 1); // fill the decade uniformly
    samples.push_back(v);
    h.record(v);
  }
  auto sorted = samples;
  std::sort(sorted.begin(), sorted.end());

  const auto snap = stats_snapshot().histograms.at("test/golden_quantiles");
  ASSERT_EQ(snap.count, samples.size());
  EXPECT_EQ(snap.max, sorted.back());
  // q=1 resolves through the exact-max path.
  EXPECT_EQ(snap.quantile(1.0), sorted.back());

  for (double q : {0.10, 0.50, 0.90, 0.99}) {
    const auto rank =
        static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
    const double exact = static_cast<double>(sorted[rank]);
    const double got = static_cast<double>(snap.quantile(q));
    // One sub-bucket of slack on either side: 2^-kSubBits relative,
    // plus a whisker for the rank-vs-midpoint convention difference.
    EXPECT_NEAR(got, exact, exact * 0.05)
        << "q=" << q << " exact=" << exact << " got=" << got;
  }

  // Mean is exact (tracked as a true sum, not reconstructed).
  std::uint64_t sum = 0;
  for (auto v : samples) sum += v;
  EXPECT_DOUBLE_EQ(snap.mean(),
                   static_cast<double>(sum) / static_cast<double>(samples.size()));
}

TEST(ObsHistogram, EmptyHistogramQuantilesAreZero) {
  set_stats_enabled(true);
  stats_reset();
  (void)histogram("test/empty");
  const auto snap = stats_snapshot().histograms.at("test/empty");
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.quantile(0.5), 0u);
  EXPECT_EQ(snap.quantile(1.0), 0u);
  EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
}

// ---------------------------------------------------------------------
// Registry basics and the enable gate
// ---------------------------------------------------------------------

TEST(ObsRegistry, CounterGaugeBasics) {
  set_stats_enabled(true);
  stats_reset();
  Counter& c = counter("test/basics_counter");
  Gauge& g = gauge("test/basics_gauge");
  c.add();
  c.add(41);
  g.set(7);
  g.add(-3);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(g.value(), 4);

  const auto snap = stats_snapshot();
  EXPECT_EQ(snap.counters.at("test/basics_counter"), 42u);
  EXPECT_EQ(snap.gauges.at("test/basics_gauge"), 4);

  // Same name, same object — cached references stay valid.
  EXPECT_EQ(&counter("test/basics_counter"), &c);
  EXPECT_EQ(&gauge("test/basics_gauge"), &g);
}

TEST(ObsRegistry, DisabledRegistryIsInert) {
  set_stats_enabled(true);
  stats_reset();
  Counter& c = counter("test/gated_counter");
  Gauge& g = gauge("test/gated_gauge");
  Histogram& h = histogram("test/gated_hist");

  set_stats_enabled(false);
  EXPECT_FALSE(stats_enabled());
  c.add(100);
  g.set(100);
  h.record(100);
  {
    // A LatencyScope opened while disabled records nothing, even if
    // stats are re-enabled before it closes.
    LatencyScope scope(h);
    set_stats_enabled(true);
  }
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(stats_snapshot().histograms.at("test/gated_hist").count, 0u);

  c.add(1); // re-enabled: records again
  EXPECT_EQ(c.value(), 1u);
}

TEST(ObsRegistry, ResetZeroesValuesButKeepsNames) {
  set_stats_enabled(true);
  Counter& c = counter("test/reset_counter");
  Histogram& h = histogram("test/reset_hist");
  c.add(5);
  h.record(123);
  stats_reset();
  EXPECT_EQ(c.value(), 0u);
  const auto snap = stats_snapshot();
  EXPECT_EQ(snap.counters.at("test/reset_counter"), 0u);
  EXPECT_EQ(snap.histograms.at("test/reset_hist").count, 0u);
}

// ---------------------------------------------------------------------
// Concurrent soak (runs under TSan in CI)
// ---------------------------------------------------------------------

TEST(ObsRegistry, ConcurrentRecordersWithLiveSnapshots) {
  set_stats_enabled(true);
  stats_reset();
  Counter& c = counter("test/soak_counter");
  Gauge& g = gauge("test/soak_gauge");
  Histogram& h = histogram("test/soak_hist");

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::atomic<bool> stop{false};

  // A reader taking live snapshots the whole time: the point is that
  // TSan sees snapshot() racing record() and stays quiet, and that
  // every intermediate view is internally sane (count never exceeds
  // the true total).
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto snap = stats_snapshot();
      const auto it = snap.histograms.find("test/soak_hist");
      if (it != snap.histograms.end()) {
        EXPECT_LE(it->second.count,
                  static_cast<std::uint64_t>(kThreads) * kPerThread);
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(0x50AB1E + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        g.add(i % 2 == 0 ? 1 : -1);
        h.record(rng.next_below(1u << 20));
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  // Quiescent: totals are exact.
  const auto snap = stats_snapshot();
  const auto total = static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(snap.counters.at("test/soak_counter"), total);
  EXPECT_EQ(snap.gauges.at("test/soak_gauge"), 0);
  const auto& hs = snap.histograms.at("test/soak_hist");
  EXPECT_EQ(hs.count, total);
  std::uint64_t bucket_total = 0;
  for (auto b : hs.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, total);
}

TEST(ObsRegistry, ExitedThreadsHandTheirShardsOnWithCountsIntact) {
  // Short-lived threads (a dist::run per op) must not grow one shard per
  // thread ever spawned: the second wave reuses the first wave's shards,
  // and no sample recorded by an exited thread is lost.
  set_stats_enabled(true);
  stats_reset();
  Histogram& h = histogram("test/short_lived");
  constexpr int kWaves = 3;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::uint64_t expect_sum = 0;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      const auto v = static_cast<std::uint64_t>(wave * kThreads + t + 1);
      expect_sum += v * kPerThread;
      threads.emplace_back([&h, v] {
        for (int i = 0; i < kPerThread; ++i) h.record(v);
      });
    }
    for (auto& t : threads) t.join();
  }
  const auto snap = stats_snapshot();
  const auto& hs = snap.histograms.at("test/short_lived");
  EXPECT_EQ(hs.count, std::uint64_t{kWaves} * kThreads * kPerThread);
  EXPECT_EQ(hs.sum, expect_sum);
  EXPECT_EQ(hs.max, std::uint64_t{kWaves} * kThreads);
}

// ---------------------------------------------------------------------
// Renderers
// ---------------------------------------------------------------------

TEST(ObsRender, JsonAndPrometheusCarryTheMetrics) {
  set_stats_enabled(true);
  stats_reset();
  counter("test/render_counter").add(3);
  gauge("test/render_gauge").set(-2);
  histogram("test/render_hist").record(1000000); // 1ms

  const auto snap = stats_snapshot();
  const std::string json = stats_json(snap);
  EXPECT_NE(json.find("\"test/render_counter\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test/render_gauge\":-2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test/render_hist\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99_us\""), std::string::npos) << json;

  const std::string prom = stats_prometheus(snap);
  EXPECT_NE(prom.find("kronlab_test_render_counter 3"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("kronlab_test_render_gauge -2"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("kronlab_test_render_hist_seconds_count 1"),
            std::string::npos)
      << prom;
  EXPECT_NE(
      prom.find("kronlab_test_render_hist_seconds{quantile=\"0.99\"}"),
      std::string::npos)
      << prom;
}

// ---------------------------------------------------------------------
// Structured logger
// ---------------------------------------------------------------------

/// Captures emitted lines; restores the stderr sink on destruction.
class LogCapture {
public:
  LogCapture() {
    set_log_sink([this](std::string_view line) {
      std::lock_guard<std::mutex> lock(mu_);
      lines_.emplace_back(line);
    });
  }
  ~LogCapture() { set_log_sink({}); }

  std::vector<std::string> lines() {
    std::lock_guard<std::mutex> lock(mu_);
    return lines_;
  }
  std::size_t count_containing(std::string_view needle) {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const auto& l : lines_)
      if (l.find(needle) != std::string::npos) ++n;
    return n;
  }

private:
  std::mutex mu_;
  std::vector<std::string> lines_;
};

class ObsLogTest : public ::testing::Test {
protected:
  void SetUp() override { saved_ = log_level(); }
  void TearDown() override { set_log_level(saved_); }

private:
  LogLevel saved_;
};

TEST_F(ObsLogTest, LogfmtShapeAndFieldQuoting) {
  set_log_level(LogLevel::debug);
  LogCapture cap;
  log(LogLevel::info, "test", "shape")
      .field("plain", "bare")
      .field("spaced", "two words")
      .field("count", std::int64_t{-5})
      .field("ratio", 0.25)
      .field("on", true)
      .field("empty", "");
  const auto lines = cap.lines();
  ASSERT_EQ(lines.size(), 1u);
  const std::string& l = lines[0];
  EXPECT_EQ(l.rfind("ts=", 0), 0u) << l;
  EXPECT_NE(l.find(" level=info"), std::string::npos) << l;
  EXPECT_NE(l.find(" subsys=test"), std::string::npos) << l;
  EXPECT_NE(l.find(" event=shape"), std::string::npos) << l;
  EXPECT_NE(l.find(" plain=bare"), std::string::npos) << l;
  EXPECT_NE(l.find(" spaced=\"two words\""), std::string::npos) << l;
  EXPECT_NE(l.find(" count=-5"), std::string::npos) << l;
  EXPECT_NE(l.find(" ratio=0.250"), std::string::npos) << l;
  EXPECT_NE(l.find(" on=true"), std::string::npos) << l;
  EXPECT_NE(l.find(" empty=\"\""), std::string::npos) << l;
  EXPECT_EQ(l.find('\n'), std::string::npos) << "line must be newline-free";
}

TEST_F(ObsLogTest, LevelsFilterAndOffSilencesEverything) {
  LogCapture cap;
  set_log_level(LogLevel::warn);
  log(LogLevel::debug, "test", "dropped_debug");
  log(LogLevel::info, "test", "dropped_info");
  log(LogLevel::warn, "test", "kept_warn");
  log(LogLevel::error, "test", "kept_error");
  set_log_level(LogLevel::off);
  log(LogLevel::error, "test", "dropped_when_off");
  const auto lines = cap.lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("kept_warn"), std::string::npos);
  EXPECT_NE(lines[1].find("kept_error"), std::string::npos);
}

TEST_F(ObsLogTest, ParseLogLevelRoundTrips) {
  for (LogLevel lvl : {LogLevel::debug, LogLevel::info, LogLevel::warn,
                       LogLevel::error, LogLevel::off}) {
    LogLevel out = LogLevel::debug;
    EXPECT_TRUE(parse_log_level(log_level_name(lvl), out));
    EXPECT_EQ(out, lvl);
  }
  LogLevel out = LogLevel::warn;
  EXPECT_FALSE(parse_log_level("loud", out));
  EXPECT_EQ(out, LogLevel::warn) << "unknown input must leave `out` alone";
}

// ---------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------

class ObsWatchdogTest : public ::testing::Test {
protected:
  void SetUp() override {
    set_stats_enabled(true);
    saved_level_ = log_level();
    set_log_level(LogLevel::warn);
  }
  void TearDown() override {
    watchdog_stop();
    set_log_level(saved_level_);
  }

private:
  LogLevel saved_level_;
};

TEST_F(ObsWatchdogTest, GuardsAppearInTheActiveTableAndClearOnExit) {
  {
    StallGuard guard("test/guarded_op");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const auto ops = active_ops_older_than(0);
    bool found = false;
    for (const auto& op : ops) {
      if (std::string_view(op.what) == "test/guarded_op") {
        found = true;
        EXPECT_GE(op.elapsed_ns, 1000000u); // slept >= 1ms of the 5
      }
    }
    EXPECT_TRUE(found);
  }
  for (const auto& op : active_ops_older_than(0)) {
    EXPECT_NE(std::string_view(op.what), "test/guarded_op")
        << "guard must clear its slot on destruction";
  }
}

TEST_F(ObsWatchdogTest, FlagsARequestWedgedPastTheDeadline) {
  using namespace serve;
  const auto kp = kron::BipartiteKronecker::assumption_i(
      gen::triangle_with_tail(1), gen::complete_bipartite(3, 4));
  Server server(kp);
  auto [client_end, server_end] = local_pair();

  // Every server-side response write stalls ~250ms, wedging the request
  // inside Server::process()'s StallGuard("serve/request").
  TransportFaultPlan plan;
  plan.seed = 0x57A11;
  plan.delay = 1.0;
  plan.delay_for = std::chrono::milliseconds(250);
  server.adopt(
      std::make_unique<FaultyTransport>(std::move(server_end), plan));

  LogCapture cap;
  const std::uint64_t stalls_before = counter("watchdog/stalls").value();
  watchdog_start({/*poll=*/std::chrono::milliseconds(10),
                  /*deadline=*/std::chrono::milliseconds(50)});
  ASSERT_TRUE(watchdog_running());

  Client client(std::move(client_end),
                RetryPolicy{3, std::chrono::milliseconds(2000)});
  const auto s = client.stats();
  EXPECT_EQ(s.num_vertices, kp.num_vertices());

  watchdog_stop();
  EXPECT_FALSE(watchdog_running());
  server.stop();

  // The wedged request crossed the 50ms deadline long before the 250ms
  // delay elapsed, so at least one stall warning names it.
  EXPECT_GE(cap.count_containing("event=stall"), 1u);
  EXPECT_GE(cap.count_containing("op=serve/request"), 1u);
  EXPECT_GT(counter("watchdog/stalls").value(), stalls_before);
}

TEST_F(ObsWatchdogTest, StaysSilentWhenRequestsFinishInTime) {
  using namespace serve;
  const auto kp = kron::BipartiteKronecker::assumption_i(
      gen::triangle_with_tail(1), gen::complete_bipartite(3, 4));
  Server server(kp);
  auto [client_end, server_end] = local_pair();
  server.adopt(std::move(server_end));

  LogCapture cap;
  const std::uint64_t stalls_before = counter("watchdog/stalls").value();
  watchdog_start({/*poll=*/std::chrono::milliseconds(10),
                  /*deadline=*/std::chrono::milliseconds(2000)});

  Client client(std::move(client_end),
                RetryPolicy{3, std::chrono::milliseconds(2000)});
  for (int i = 0; i < 16; ++i) {
    (void)client.vertex(i % kp.num_vertices());
  }

  watchdog_stop();
  server.stop();

  EXPECT_EQ(cap.count_containing("event=stall"), 0u);
  EXPECT_EQ(counter("watchdog/stalls").value(), stalls_before);
}

} // namespace
} // namespace kronlab::obs
