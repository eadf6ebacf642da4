#include "kronlab/dist/aggregator.hpp"

#include <string>
#include <utility>

#include "kronlab/common/error.hpp"
#include "kronlab/obs/stats.hpp"
#include "kronlab/obs/trace.hpp"

namespace kronlab::dist {

void AggregatorStats::merge(const AggregatorStats& other) {
  frames_enqueued += other.frames_enqueued;
  rows_coalesced += other.rows_coalesced;
  single_flushes += other.single_flushes;
  batches_sent += other.batches_sent;
  capacity_flushes += other.capacity_flushes;
  manual_flushes += other.manual_flushes;
}

Aggregator::Aggregator(Comm& comm, int tag)
    : comm_(comm), tag_(tag), buffers_(static_cast<std::size_t>(comm.size())) {}

Aggregator::~Aggregator() { flush_all(); }

bool Aggregator::is_batch(std::span<const word_t> msg) {
  return !msg.empty() && msg.front() == kBatchMagic;
}

void Aggregator::split(std::span<const word_t> msg,
                       std::vector<Frame>& frames) {
  frames.clear();
  if (!is_batch(msg)) {
    frames.push_back(msg);
    return;
  }
  KRONLAB_REQUIRE(msg.size() >= 2, "malformed aggregator batch header");
  // Every frame costs at least its length word, so a count larger than
  // the words left is malformed however the lengths read.
  const auto count = msg[1];
  KRONLAB_REQUIRE(count >= 0 &&
                      static_cast<std::size_t>(count) <= msg.size() - 2,
                  "malformed aggregator batch count");
  std::size_t i = 2;
  for (word_t f = 0; f < count; ++f) {
    KRONLAB_REQUIRE(i < msg.size(), "truncated aggregator batch");
    const auto len = msg[i++];
    KRONLAB_REQUIRE(len >= 0 && static_cast<std::size_t>(len) <=
                                    msg.size() - i,
                    "malformed aggregator frame length");
    frames.push_back(msg.subspan(i, static_cast<std::size_t>(len)));
    i += static_cast<std::size_t>(len);
  }
  KRONLAB_REQUIRE(i == msg.size(), "trailing words after aggregator batch");
}

void Aggregator::append(index_t to, std::span<const word_t> head,
                        std::span<const word_t> tail) {
  KRONLAB_REQUIRE(!head.empty() && head.front() >= 0,
                  "aggregated frames must start with a non-negative word");
  ++stats_.frames_enqueued;
  auto& buf = buffers_[static_cast<std::size_t>(to)];
  const std::size_t words = head.size() + tail.size();
  if (buf.frames > 0 && buf.words + words > kCapacityWords) {
    flush_buffer(to, buf, FlushReason::capacity);
  }
  if (buf.frames == 0) {
    buf.wire.push_back(kBatchMagic);
    buf.wire.push_back(0); // frame count, filled in at flush
  }
  buf.wire.push_back(static_cast<word_t>(words));
  buf.wire.insert(buf.wire.end(), head.begin(), head.end());
  buf.wire.insert(buf.wire.end(), tail.begin(), tail.end());
  ++buf.frames;
  buf.words += words;
  if (buf.words >= kCapacityWords) {
    flush_buffer(to, buf, FlushReason::capacity);
  }
}

void Aggregator::flush_buffer(index_t to, Buffer& buf, FlushReason reason) {
  if (buf.frames == 0) return;
  switch (reason) {
    case FlushReason::capacity: ++stats_.capacity_flushes; break;
    case FlushReason::manual: ++stats_.manual_flushes; break;
  }
  static obs::Counter& flush_counter = obs::counter("dist/agg_flushes");
  flush_counter.add();
  static obs::Histogram& flush_hist = obs::histogram("dist/agg_flush");
  obs::LatencyScope flush_latency(flush_hist);
  if (trace::enabled()) {
    trace::instant(
        "dist", "agg/flush",
        trace::intern("rank=" + std::to_string(comm_.rank()) +
                      " dest=" + std::to_string(to) +
                      " frames=" + std::to_string(buf.frames) +
                      " words=" + std::to_string(buf.words) + " reason=" +
                      (reason == FlushReason::capacity ? "capacity"
                                                       : "manual")));
  }
  // The buffer keeps its storage for the next frames; the wire gets an
  // exact-size copy.
  if (buf.frames == 1) {
    // A lone frame ships raw — zero framing overhead, byte-identical to
    // an unbatched send.
    ++stats_.single_flushes;
    comm_.send(to, tag_, Message(buf.wire.begin() + 3, buf.wire.end()));
  } else {
    const auto n = static_cast<count_t>(buf.frames);
    buf.wire[1] = n;
    stats_.rows_coalesced += n;
    ++stats_.batches_sent;
    comm_.send(to, tag_, Message(buf.wire));
  }
  buf.wire.clear();
  buf.frames = 0;
  buf.words = 0;
}

void Aggregator::flush(index_t to) {
  flush_buffer(to, buffers_[static_cast<std::size_t>(to)],
               FlushReason::manual);
}

void Aggregator::flush_all() {
  for (index_t r = 0; r < static_cast<index_t>(buffers_.size()); ++r) {
    flush_buffer(r, buffers_[static_cast<std::size_t>(r)],
                 FlushReason::manual);
  }
}

std::optional<index_t> Aggregator::recv(std::chrono::milliseconds timeout) {
  auto got = comm_.recv_any(tag_, timeout);
  if (!got) return std::nullopt;
  received_ = std::move(got->second);
  split(received_, frames_);
  return got->first;
}

} // namespace kronlab::dist
