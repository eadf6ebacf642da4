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

bool Aggregator::is_batch(const Message& msg) {
  return !msg.empty() && msg.front() == kBatchMagic;
}

std::vector<Message> Aggregator::unpack(const Message& msg) {
  KRONLAB_REQUIRE(msg.size() >= 2 && msg[0] == kBatchMagic,
                  "malformed aggregator batch header");
  const auto count = msg[1];
  KRONLAB_REQUIRE(count >= 0, "malformed aggregator batch count");
  std::vector<Message> frames;
  frames.reserve(static_cast<std::size_t>(count));
  std::size_t i = 2;
  for (word_t f = 0; f < count; ++f) {
    KRONLAB_REQUIRE(i < msg.size(), "truncated aggregator batch");
    const auto len = msg[i++];
    KRONLAB_REQUIRE(len >= 0 && i + static_cast<std::size_t>(len) <=
                                    msg.size(),
                    "malformed aggregator frame length");
    frames.emplace_back(msg.begin() + static_cast<std::ptrdiff_t>(i),
                        msg.begin() + static_cast<std::ptrdiff_t>(
                                          i + static_cast<std::size_t>(len)));
    i += static_cast<std::size_t>(len);
  }
  KRONLAB_REQUIRE(i == msg.size(), "trailing words after aggregator batch");
  return frames;
}

void Aggregator::enqueue(index_t to, Message frame) {
  KRONLAB_REQUIRE(!frame.empty() && frame.front() >= 0,
                  "aggregated frames must start with a non-negative word");
  ++stats_.frames_enqueued;
  auto& buf = buffers_[static_cast<std::size_t>(to)];
  if (!buf.frames.empty() && buf.words + frame.size() > kCapacityWords) {
    flush_buffer(to, buf, FlushReason::capacity);
  }
  buf.words += frame.size();
  buf.frames.push_back(std::move(frame));
  if (buf.words >= kCapacityWords) {
    flush_buffer(to, buf, FlushReason::capacity);
  }
}

void Aggregator::flush_buffer(index_t to, Buffer& buf, FlushReason reason) {
  if (buf.frames.empty()) return;
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
                      " frames=" + std::to_string(buf.frames.size()) +
                      " words=" + std::to_string(buf.words) + " reason=" +
                      (reason == FlushReason::capacity ? "capacity"
                                                       : "manual")));
  }
  if (buf.frames.size() == 1) {
    // A lone frame ships raw — zero framing overhead, byte-identical to
    // an unbatched send.
    ++stats_.single_flushes;
    comm_.send(to, tag_, std::move(buf.frames.front()));
  } else {
    const auto n = static_cast<count_t>(buf.frames.size());
    Message batch;
    batch.reserve(2 + buf.frames.size() + buf.words);
    batch.push_back(kBatchMagic);
    batch.push_back(n);
    for (auto& frame : buf.frames) {
      batch.push_back(static_cast<word_t>(frame.size()));
      batch.insert(batch.end(), frame.begin(), frame.end());
    }
    stats_.rows_coalesced += n;
    ++stats_.batches_sent;
    comm_.send(to, tag_, std::move(batch));
  }
  buf.frames.clear();
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

std::optional<std::pair<index_t, std::vector<Message>>>
Aggregator::recv_frames(std::chrono::milliseconds timeout) {
  auto got = comm_.recv_any(tag_, timeout);
  if (!got) return std::nullopt;
  if (is_batch(got->second)) {
    return std::make_pair(got->first, unpack(got->second));
  }
  std::vector<Message> one;
  one.push_back(std::move(got->second));
  return std::make_pair(got->first, std::move(one));
}

} // namespace kronlab::dist
