// kronlab/obs/watchdog.cpp — see watchdog.hpp for the contract.

#include "kronlab/obs/watchdog.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "kronlab/common/sync.hpp"
#include "kronlab/common/timer.hpp"
#include "kronlab/obs/log.hpp"
#include "kronlab/obs/stats.hpp"

namespace kronlab::obs {
namespace {

constexpr std::size_t kSlots = 128;

/// One entry in the fixed active-operation table.  start_ns == 0 means
/// free; `what` is published before start_ns (release) so a sampler that
/// sees a nonzero start also sees the label.  A slot recycled between a
/// sampler's two reads only makes the op look *younger* — harmless.
struct Slot {
  std::atomic<std::uint64_t> start_ns{0};
  std::atomic<const char*> what{nullptr};
  /// Elapsed-at-last-warning, watchdog bookkeeping for exponential
  /// re-warn spacing.  Reset on release.
  std::atomic<std::uint64_t> warned_ns{0};
};

Slot g_slots[kSlots];

std::uint64_t guard_now_ns() {
  // timer::now_ns() is 0 at the process epoch; 0 is the free sentinel.
  return std::max<std::uint64_t>(1, timer::now_ns());
}

struct WatchdogState {
  Mutex mu;
  std::thread thread GUARDED_BY(mu);
  bool running GUARDED_BY(mu) = false;
  bool stop_requested GUARDED_BY(mu) = false;
  WatchdogOptions options GUARDED_BY(mu);
  CondVar cv;

  static WatchdogState& get() {
    // kronlab-analyze: allow(naked-new) leaked (trace-registry idiom):
    // guards may outlive static dtors.
    static WatchdogState* s = new WatchdogState;
    return *s;
  }
};

void watchdog_scan(const WatchdogOptions& options) {
  const std::uint64_t now = guard_now_ns();
  const std::uint64_t deadline_ns =
      static_cast<std::uint64_t>(options.deadline.count()) * 1000000ull;
  for (Slot& slot : g_slots) {
    const std::uint64_t start = slot.start_ns.load(std::memory_order_acquire);
    if (start == 0 || now <= start) continue;
    const std::uint64_t elapsed = now - start;
    if (elapsed < deadline_ns) continue;
    // Warn at deadline, then re-warn each time elapsed doubles.
    std::uint64_t warned = slot.warned_ns.load(std::memory_order_relaxed);
    if (warned != 0 && elapsed < warned * 2) continue;
    if (!slot.warned_ns.compare_exchange_strong(warned, elapsed,
                                                std::memory_order_relaxed)) {
      continue; // raced with release/reacquire — skip this round
    }
    const char* what = slot.what.load(std::memory_order_acquire);
    counter("watchdog/stalls").add();
    log(LogLevel::warn, "watchdog", "stall")
        .field("op", what != nullptr ? what : "?")
        .field("elapsed_ms", elapsed / 1000000)
        .field("deadline_ms",
               static_cast<std::int64_t>(options.deadline.count()));
  }
}

void watchdog_loop() {
  WatchdogState& s = WatchdogState::get();
  for (;;) {
    WatchdogOptions options;
    {
      MutexLock lock(s.mu);
      if (s.stop_requested) return;
      options = s.options;
      s.cv.wait_until(s.mu, std::chrono::steady_clock::now() + options.poll);
      if (s.stop_requested) return;
    }
    watchdog_scan(options);
  }
}

} // namespace

StallGuard::StallGuard(const char* what) : slot_(kSlots) {
  const std::uint64_t now = guard_now_ns();
  for (std::size_t i = 0; i < kSlots; ++i) {
    std::uint64_t expected = 0;
    if (g_slots[i].start_ns.compare_exchange_strong(
            expected, now, std::memory_order_acq_rel,
            std::memory_order_relaxed)) {
      // Label published after winning the slot; a sampler racing the
      // store sees nullptr and reports "?" for one poll at most.
      g_slots[i].what.store(what, std::memory_order_release);
      slot_ = i;
      return;
    }
  }
  counter("watchdog/slots_exhausted").add();
}

StallGuard::~StallGuard() {
  if (slot_ >= kSlots) return;
  g_slots[slot_].warned_ns.store(0, std::memory_order_relaxed);
  g_slots[slot_].what.store(nullptr, std::memory_order_relaxed);
  g_slots[slot_].start_ns.store(0, std::memory_order_release);
}

std::vector<ActiveOp> active_ops_older_than(std::uint64_t min_elapsed_ns) {
  const std::uint64_t now = guard_now_ns();
  std::vector<ActiveOp> out;
  for (Slot& slot : g_slots) {
    const std::uint64_t start = slot.start_ns.load(std::memory_order_acquire);
    if (start == 0 || now <= start) continue;
    const std::uint64_t elapsed = now - start;
    if (elapsed < min_elapsed_ns) continue;
    const char* what = slot.what.load(std::memory_order_acquire);
    out.push_back({what != nullptr ? what : "?", elapsed});
  }
  return out;
}

void watchdog_start(const WatchdogOptions& options) {
  WatchdogState& s = WatchdogState::get();
  MutexLock lock(s.mu);
  if (s.running) return;
  s.options = options;
  s.stop_requested = false;
  s.thread = std::thread(watchdog_loop);
  s.running = true;
  log(LogLevel::debug, "watchdog", "start")
      .field("poll_ms", static_cast<std::int64_t>(options.poll.count()))
      .field("deadline_ms",
             static_cast<std::int64_t>(options.deadline.count()));
}

void watchdog_stop() {
  WatchdogState& s = WatchdogState::get();
  std::thread joinable;
  {
    MutexLock lock(s.mu);
    if (!s.running) return;
    s.stop_requested = true;
    s.cv.notify_all();
    joinable = std::move(s.thread);
    s.running = false;
  }
  joinable.join();
}

bool watchdog_running() {
  WatchdogState& s = WatchdogState::get();
  MutexLock lock(s.mu);
  return s.running;
}

} // namespace kronlab::obs
