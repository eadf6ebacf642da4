#include "kronlab/dist/comm.hpp"

#include <atomic>
#include <cstdio>
#include <exception>
#include <map>
#include <thread>

#include "kronlab/common/error.hpp"
#include "kronlab/common/sync.hpp"
#include "kronlab/obs/trace.hpp"

namespace kronlab::dist {

namespace detail {

namespace {

/// splitmix64 finalizer — cheap stateless hash for per-message fault draws.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double uniform_from(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Thrown to unwind a rank killed at a fault point.  Never escapes run().
struct killed {};

} // namespace

struct Mailbox {
  Mutex mutex;
  CondVar cv;
  // (from, tag) → FIFO of messages.
  std::map<std::pair<index_t, int>, std::deque<Message>> queues
      GUARDED_BY(mutex);

  // Fault-delayed messages parked here until `release_at` deliveries have
  // happened (or a deadline receive expires and flushes them).
  struct Delayed {
    index_t from;
    int tag;
    Message msg;
    std::uint64_t release_at;
  };
  std::vector<Delayed> delayed GUARDED_BY(mutex);
  std::uint64_t delivery_count GUARDED_BY(mutex) = 0;
  // Any-sender receives scan senders round-robin from here.
  index_t next_sender GUARDED_BY(mutex) = 0;
};

struct Runtime {
  Runtime(index_t ranks, const FaultPlan* fault_plan)
      : size(ranks),
        plan(fault_plan),
        mailboxes(static_cast<std::size_t>(ranks)),
        dead(static_cast<std::size_t>(ranks)),
        channel_seq(static_cast<std::size_t>(ranks * ranks)),
        live_count(ranks) {
    for (auto& d : dead) d.store(false, std::memory_order_relaxed);
    for (auto& c : channel_seq) c.store(0, std::memory_order_relaxed);
  }

  const index_t size;
  const FaultPlan* plan; ///< null when running fault-free
  std::vector<Mailbox> mailboxes;
  std::vector<std::atomic<bool>> dead;
  std::vector<std::atomic<std::uint64_t>> channel_seq;
  std::atomic<std::uint64_t> kill_hits_seen{0};

  std::atomic<std::int64_t> stat_dropped{0};
  std::atomic<std::int64_t> stat_duplicated{0};
  std::atomic<std::int64_t> stat_delayed{0};

  // Sense-reversing barrier over *live* ranks.
  Mutex barrier_mutex;
  CondVar barrier_cv;
  index_t barrier_waiting GUARDED_BY(barrier_mutex) = 0;
  index_t live_count GUARDED_BY(barrier_mutex);
  std::uint64_t barrier_epoch GUARDED_BY(barrier_mutex) = 0;

  enum class Action { deliver, drop, duplicate, delay };

  Action decide(index_t from, index_t to, int tag, std::uint64_t* seq_out) {
    if (!plan || !plan->injects_message_faults()) return Action::deliver;
    if (tag < 0 && plan->exempt_collectives) return Action::deliver;
    const std::uint64_t seq =
        channel_seq[static_cast<std::size_t>(from * size + to)].fetch_add(
            1, std::memory_order_relaxed);
    if (seq_out) *seq_out = seq;
    const double u = uniform_from(mix64(
        plan->seed ^ mix64(static_cast<std::uint64_t>(from * size + to)) ^
        (seq * 0x9e3779b97f4a7c15ULL)));
    if (u < plan->drop) return Action::drop;
    if (u < plan->drop + plan->duplicate) return Action::duplicate;
    if (u < plan->drop + plan->duplicate + plan->delay) return Action::delay;
    return Action::deliver;
  }

  /// Timeline annotation for an injected fault: which message (channel
  /// sequence number) between which ranks, on which tag.
  static void note_fault(const char* what, index_t from, index_t to, int tag,
                         std::uint64_t seq) {
    if (!trace::enabled()) return;
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "from=%lld to=%lld tag=%d seq=%llu",
                  static_cast<long long>(from), static_cast<long long>(to),
                  tag, static_cast<unsigned long long>(seq));
    trace::instant("dist", what, trace::intern(buf));
  }

  static void release_due(Mailbox& box) REQUIRES(box.mutex) {
    auto it = box.delayed.begin();
    while (it != box.delayed.end()) {
      if (it->release_at <= box.delivery_count) {
        box.queues[{it->from, it->tag}].push_back(std::move(it->msg));
        it = box.delayed.erase(it);
      } else {
        ++it;
      }
    }
  }

  // Deadline expiry: the "late" packets arrive.
  static bool flush_delayed(Mailbox& box) REQUIRES(box.mutex) {
    if (box.delayed.empty()) return false;
    for (auto& d : box.delayed) {
      box.queues[{d.from, d.tag}].push_back(std::move(d.msg));
    }
    box.delayed.clear();
    return true;
  }

  void deliver(index_t to, index_t from, int tag, Message msg) {
    if (dead[static_cast<std::size_t>(to)].load(std::memory_order_acquire)) {
      return; // network to a dead host
    }
    std::uint64_t seq = 0;
    const Action action = decide(from, to, tag, &seq);
    if (action == Action::drop) {
      stat_dropped.fetch_add(1, std::memory_order_relaxed);
      note_fault("fault/drop", from, to, tag, seq);
      return;
    }
    auto& box = mailboxes[static_cast<std::size_t>(to)];
    {
      MutexLock lock(box.mutex);
      ++box.delivery_count;
      release_due(box);
      switch (action) {
        case Action::duplicate:
          stat_duplicated.fetch_add(1, std::memory_order_relaxed);
          note_fault("fault/duplicate", from, to, tag, seq);
          box.queues[{from, tag}].push_back(msg);
          box.queues[{from, tag}].push_back(std::move(msg));
          break;
        case Action::delay:
          stat_delayed.fetch_add(1, std::memory_order_relaxed);
          note_fault("fault/delay", from, to, tag, seq);
          box.delayed.push_back(
              {from, tag, std::move(msg),
               box.delivery_count +
                   static_cast<std::uint64_t>(
                       plan ? plan->delay_deliveries : 0)});
          break;
        default:
          box.queues[{from, tag}].push_back(std::move(msg));
          break;
      }
    }
    box.cv.notify_all();
  }

  [[nodiscard]] bool rank_dead(index_t r) const {
    return dead[static_cast<std::size_t>(r)].load(std::memory_order_acquire);
  }

  /// Non-empty queue on `tag` (any sender), or nullptr.  On a hit,
  /// `*from` names the sender.  Senders are scanned round-robin, starting
  /// after the last one served, so a sender with a steady backlog cannot
  /// starve higher-numbered ones (their replies would miss deadlines).
  static std::deque<Message>* find_on_tag(Mailbox& box, int tag,
                                          index_t* from)
      REQUIRES(box.mutex) {
    const auto split = box.queues.lower_bound({box.next_sender, tag});
    for (const auto& [first, last] :
         {std::pair(split, box.queues.end()),
          std::pair(box.queues.begin(), split)}) {
      for (auto it = first; it != last; ++it) {
        if (it->first.second == tag && !it->second.empty()) {
          *from = it->first.first;
          box.next_sender = *from + 1;
          return &it->second;
        }
      }
    }
    return nullptr;
  }

  Message take(index_t me, index_t from, int tag) {
    auto& box = mailboxes[static_cast<std::size_t>(me)];
    MutexLock lock(box.mutex);
    auto& q = box.queues[{from, tag}];
    // A blocking receive from a dead rank would hang forever — surface it
    // as the typed failure instead (mark_dead wakes all mailbox waiters).
    while (q.empty() && !rank_dead(from)) box.cv.wait(box.mutex);
    if (q.empty()) {
      throw rank_failed("rank " + std::to_string(from) +
                        " died while rank " + std::to_string(me) +
                        " was blocked receiving from it");
    }
    Message msg = std::move(q.front());
    q.pop_front();
    return msg;
  }

  std::optional<Message> take_deadline(index_t me, index_t from, int tag,
                                       std::chrono::milliseconds timeout) {
    auto& box = mailboxes[static_cast<std::size_t>(me)];
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    MutexLock lock(box.mutex);
    auto& q = box.queues[{from, tag}];
    // Give up early when the sender is dead: nothing new can arrive, so
    // waiting out the rest of the deadline only stalls the caller's retry
    // loop (mark_dead wakes this cv precisely so we notice promptly).
    // A zero timeout is a poll: never enter the timed wait.
    bool timed_out = timeout <= std::chrono::milliseconds::zero();
    while (q.empty() && !timed_out && !rank_dead(from)) {
      timed_out = box.cv.wait_until(box.mutex, deadline);
    }
    if (q.empty()) {
      // Deadline expiry or sender death: the "late" packets arrive now.
      flush_delayed(box);
      if (q.empty()) return std::nullopt;
    }
    Message msg = std::move(q.front());
    q.pop_front();
    return msg;
  }

  std::optional<std::pair<index_t, Message>> take_any(
      index_t me, int tag, std::chrono::milliseconds timeout) {
    auto& box = mailboxes[static_cast<std::size_t>(me)];
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    MutexLock lock(box.mutex);
    index_t from = -1;
    std::deque<Message>* q = find_on_tag(box, tag, &from);
    bool timed_out = timeout <= std::chrono::milliseconds::zero();
    while (q == nullptr && !timed_out) {
      timed_out = box.cv.wait_until(box.mutex, deadline);
      q = find_on_tag(box, tag, &from);
    }
    if (q == nullptr) {
      flush_delayed(box);
      q = find_on_tag(box, tag, &from);
      if (q == nullptr) return std::nullopt;
    }
    Message msg = std::move(q->front());
    q->pop_front();
    return std::make_pair(from, std::move(msg));
  }

  void barrier() {
    MutexLock lock(barrier_mutex);
    const std::uint64_t my_epoch = barrier_epoch;
    if (++barrier_waiting >= live_count) {
      barrier_waiting = 0;
      ++barrier_epoch;
      barrier_cv.notify_all();
    } else {
      while (barrier_epoch == my_epoch) barrier_cv.wait(barrier_mutex);
    }
  }

  Comm make_comm(index_t r) { return Comm(this, r); }

  void mark_dead(index_t r) {
    dead[static_cast<std::size_t>(r)].store(true, std::memory_order_release);
    {
      MutexLock lock(barrier_mutex);
      --live_count;
      // If everyone still alive is already parked at the barrier, release
      // them — the dead rank will never arrive.
      if (live_count > 0 && barrier_waiting >= live_count) {
        barrier_waiting = 0;
        ++barrier_epoch;
        barrier_cv.notify_all();
      }
    }
    barrier_cv.notify_all();
    // Wake any deadline receives so they re-check liveness promptly.
    for (auto& box : mailboxes) box.cv.notify_all();
  }
};

} // namespace detail

index_t Comm::size() const { return rt_->size; }

void Comm::send(index_t to, int tag, Message msg) {
  KRONLAB_REQUIRE(to >= 0 && to < size(), "send: rank out of range");
  rt_->deliver(to, rank_, tag, std::move(msg));
}

Message Comm::recv(index_t from, int tag) {
  KRONLAB_REQUIRE(from >= 0 && from < size(), "recv: rank out of range");
  return rt_->take(rank_, from, tag);
}

std::optional<Message> Comm::recv_deadline(index_t from, int tag,
                                           std::chrono::milliseconds timeout) {
  KRONLAB_REQUIRE(from >= 0 && from < size(), "recv: rank out of range");
  return rt_->take_deadline(rank_, from, tag, timeout);
}

std::optional<std::pair<index_t, Message>> Comm::recv_any(
    int tag, std::chrono::milliseconds timeout) {
  return rt_->take_any(rank_, tag, timeout);
}

bool Comm::rank_alive(index_t r) const {
  KRONLAB_REQUIRE(r >= 0 && r < size(), "rank out of range");
  return !rt_->dead[static_cast<std::size_t>(r)].load(
      std::memory_order_acquire);
}

std::vector<index_t> Comm::live_ranks() const {
  std::vector<index_t> live;
  for (index_t r = 0; r < size(); ++r) {
    if (rank_alive(r)) live.push_back(r);
  }
  return live;
}

void Comm::fault_point(const char* point) {
  const FaultPlan* plan = rt_->plan;
  if (!plan || plan->kill_rank != rank_ || plan->kill_point != point) return;
  const std::uint64_t hit =
      rt_->kill_hits_seen.fetch_add(1, std::memory_order_relaxed) + 1;
  if (hit == plan->kill_hits) {
    if (trace::enabled()) {
      trace::instant("dist", "fault/kill",
                     trace::intern("point=" + std::string(point) +
                                   " rank=" + std::to_string(rank_)));
    }
    throw detail::killed{};
  }
}

FaultStats Comm::fault_stats() const {
  return {rt_->stat_dropped.load(std::memory_order_relaxed),
          rt_->stat_duplicated.load(std::memory_order_relaxed),
          rt_->stat_delayed.load(std::memory_order_relaxed)};
}

void Comm::barrier() { rt_->barrier(); }

namespace {
constexpr int kReduceTag = -1;
constexpr int kGatherTag = -2;
constexpr int kAlltoallTag = -3;
constexpr int kMemberReduceTag = -4;
constexpr int kMemberGatherTag = -5;

void require_membership(const Comm& comm, const std::vector<index_t>& m) {
  KRONLAB_REQUIRE(!m.empty(), "member collective: empty member set");
  bool found = false;
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i > 0) {
      KRONLAB_REQUIRE(m[i] > m[i - 1],
                      "member collective: members must be ascending");
    }
    found |= (m[i] == comm.rank());
  }
  KRONLAB_REQUIRE(found, "member collective: caller not in member set");
}
} // namespace

word_t Comm::allreduce_sum(word_t value) {
  // Gather at rank 0, broadcast the sum — O(P) messages, plenty for the
  // simulated scale and identical semantics to MPI_Allreduce.
  if (rank_ == 0) {
    word_t total = value;
    for (index_t r = 1; r < size(); ++r) {
      total += recv(r, kReduceTag).at(0);
    }
    for (index_t r = 1; r < size(); ++r) {
      send(r, kReduceTag, {total});
    }
    return total;
  }
  send(0, kReduceTag, {value});
  return recv(0, kReduceTag).at(0);
}

word_t Comm::allreduce_sum(word_t value,
                           const std::vector<index_t>& members) {
  require_membership(*this, members);
  const index_t root = members.front();
  if (rank_ == root) {
    word_t total = value;
    for (std::size_t i = 1; i < members.size(); ++i) {
      total += recv(members[i], kMemberReduceTag).at(0);
    }
    for (std::size_t i = 1; i < members.size(); ++i) {
      send(members[i], kMemberReduceTag, {total});
    }
    return total;
  }
  send(root, kMemberReduceTag, {value});
  return recv(root, kMemberReduceTag).at(0);
}

std::vector<word_t> Comm::allgather(word_t value) {
  if (rank_ == 0) {
    std::vector<word_t> all(static_cast<std::size_t>(size()));
    all[0] = value;
    for (index_t r = 1; r < size(); ++r) {
      all[static_cast<std::size_t>(r)] = recv(r, kGatherTag).at(0);
    }
    for (index_t r = 1; r < size(); ++r) {
      send(r, kGatherTag, Message(all));
    }
    return all;
  }
  send(0, kGatherTag, {value});
  auto msg = recv(0, kGatherTag);
  return msg;
}

std::vector<word_t> Comm::allgather(word_t value,
                                    const std::vector<index_t>& members) {
  require_membership(*this, members);
  const index_t root = members.front();
  if (rank_ == root) {
    std::vector<word_t> all(members.size());
    all[0] = value;
    for (std::size_t i = 1; i < members.size(); ++i) {
      all[i] = recv(members[i], kMemberGatherTag).at(0);
    }
    for (std::size_t i = 1; i < members.size(); ++i) {
      send(members[i], kMemberGatherTag, Message(all));
    }
    return all;
  }
  send(root, kMemberGatherTag, {value});
  return recv(root, kMemberGatherTag);
}

std::vector<Message> Comm::alltoall(std::vector<Message> outgoing) {
  KRONLAB_REQUIRE(static_cast<index_t>(outgoing.size()) == size(),
                  "alltoall: need one message per rank");
  std::vector<Message> incoming(static_cast<std::size_t>(size()));
  incoming[static_cast<std::size_t>(rank_)] =
      std::move(outgoing[static_cast<std::size_t>(rank_)]);
  for (index_t r = 0; r < size(); ++r) {
    if (r == rank_) continue;
    send(r, kAlltoallTag, std::move(outgoing[static_cast<std::size_t>(r)]));
  }
  for (index_t r = 0; r < size(); ++r) {
    if (r == rank_) continue;
    incoming[static_cast<std::size_t>(r)] = recv(r, kAlltoallTag);
  }
  return incoming;
}

namespace {

void run_impl(index_t ranks, const FaultPlan* plan,
              const std::function<void(Comm&)>& fn) {
  KRONLAB_REQUIRE(ranks >= 1, "need at least one rank");
  if (plan) {
    KRONLAB_REQUIRE(plan->drop + plan->duplicate + plan->delay <= 1.0,
                    "fault probabilities must sum to <= 1");
    KRONLAB_REQUIRE(plan->kill_rank < ranks, "kill_rank out of range");
  }
  detail::Runtime rt(ranks, plan);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(ranks));
  std::mutex error_mutex;
  std::exception_ptr first_error;
  for (index_t r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r] {
      trace::set_thread_name("rank " + std::to_string(r));
      try {
        // The rank's whole lifetime is one span; a killed rank's span ends
        // at the kill, so truncated tracks are visible on the timeline.
        trace::Span span("dist", "rank");
        Comm comm = rt.make_comm(r);
        fn(comm);
      } catch (const detail::killed&) {
        rt.mark_dead(r); // planned death, not an error
      } catch (...) {
        {
          std::lock_guard lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        rt.mark_dead(r); // don't leave survivors stuck at barriers
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

} // namespace

void run(index_t ranks, const std::function<void(Comm&)>& fn) {
  run_impl(ranks, nullptr, fn);
}

void run(index_t ranks, const FaultPlan& plan,
         const std::function<void(Comm&)>& fn) {
  run_impl(ranks, &plan, fn);
}

} // namespace kronlab::dist
