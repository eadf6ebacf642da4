// Crash-tolerance battery for the durable streaming-generation pipeline:
// segment/manifest format round trips, a kill/resume matrix over every
// named filesystem fault point asserting byte-identical final stores,
// fail-injection (io_error, no crash) recoverability, short-write
// robustness, torn-segment fuzzing, and on-the-fly ground-truth
// validation catching corrupted stores and perturbed edge streams.
// The shards of a store are generated and verified concurrently, so the
// fault suites run at pool widths 1 (the serial path) and 4.
//
// The CI release job re-runs this suite with KRONLAB_FAULT_RATE=high,
// which scales the fuzz iteration counts; every assertion is
// rate-independent — a resumed run must reproduce the uninterrupted
// store byte for byte no matter where it died.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "kronlab/common/random.hpp"
#include "kronlab/dist/sharded.hpp"
#include "kronlab/gen/canonical.hpp"
#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/io/durable.hpp"
#include "kronlab/io/file_ops.hpp"
#include "kronlab/io/stream_gen.hpp"
#include "kronlab/kron/oracle.hpp"
#include "kronlab/kron/partition.hpp"
#include "kronlab/kron/power.hpp"
#include "kronlab/parallel/thread_pool.hpp"
#include "support/kron_reference.hpp"
#include "support/temp_dir.hpp"

namespace kronlab::io {
namespace {

using test_support::TempDir;

/// KRONLAB_FAULT_RATE=high (or a numeric factor) scales the fuzz loops —
/// the CI release job uses it to widen coverage.
double fault_rate_scale() {
  const char* env = std::getenv("KRONLAB_FAULT_RATE");
  if (!env) return 1.0;
  if (std::string(env) == "high") return 5.0;
  const double v = std::strtod(env, nullptr);
  return v > 0 ? v : 1.0;
}

/// The product under test: heavy-tail non-bipartite ⊗ bipartite, small
/// enough that every fault-matrix run is milliseconds, large enough that
/// every shard seals several segments (so every fault point is reachable
/// in every shard).
kron::BipartiteKronecker test_product() {
  Rng rng(7);
  auto m = gen::random_nonbipartite_connected(9, 16, rng);
  auto b = gen::preferential_bipartite(3, 4, 8, rng);
  return kron::BipartiteKronecker::raw(std::move(m), std::move(b));
}

StreamGenOptions test_options(std::string dir) {
  StreamGenOptions opt;
  opt.dir = std::move(dir);
  opt.shards = 3;
  opt.segment_edges = 64;
  opt.sample_rate = 4; // sample densely — these graphs are tiny
  return opt;
}

/// Every file of a store as name → bytes (the byte-identity oracle).
std::map<std::string, std::string> store_bytes(const std::string& dir) {
  std::map<std::string, std::string> out;
  FileOps& ops = real_file_ops();
  for (const auto& name : ops.list_dir(dir)) {
    out[name] = *ops.read_file(dir + "/" + name);
  }
  return out;
}

/// Reference store: one uninterrupted run of the canonical product.
const std::map<std::string, std::string>& reference_store() {
  static const auto ref = [] {
    const auto kp = test_product();
    const TempDir tmp("durable_reference");
    const auto& dir = tmp.path();
    generate_durable(real_file_ops(), kp, test_options(dir));
    return store_bytes(dir);
  }();
  return ref;
}

/// Pool widths the shard-concurrent paths run at; 1 is the serial path.
constexpr std::size_t kPoolWidths[] = {1, 4};

/// Run `body` once per pool width, with global_pool() redirected.
void at_each_pool_width(const std::function<void()>& body) {
  for (const std::size_t width : kPoolWidths) {
    SCOPED_TRACE("pool width " + std::to_string(width));
    ThreadPool pool(width);
    const ScopedPoolOverride use(pool);
    body();
  }
}

/// All named fault points of the two file classes.
std::vector<std::string> all_fault_points() {
  std::vector<std::string> points;
  for (const char* tag : {"segment", "manifest"}) {
    for (const char* op_phase :
         {"write:before", "write:after", "write:torn", "sync:before",
          "sync:after", "rename:before", "rename:after"}) {
      points.push_back(std::string(tag) + ":" + op_phase);
    }
  }
  return points;
}

// ---------------------------------------------------------------------------
// Format round trips and corruption detection.

TEST(DurableFormat, SegmentRoundTrip) {
  const TempDir tmp("durable_seg_roundtrip");
  const auto& dir = tmp.path();
  FileOps& ops = real_file_ops();
  SegmentHeader h;
  h.spec_hash = 0xabcdef;
  h.shard = 2;
  h.seg_index = 5;
  h.first_edge = 320;
  h.num_edges = 4;
  const std::vector<std::pair<index_t, index_t>> edges = {
      {1, 2}, {1, 300}, {4, 0}, {5, 1}};
  SegmentBuffer buf(4);
  for (const auto& [p, q] : edges) buf.push(p, q);
  std::uint64_t chain = 0x1234;
  const std::uint64_t payload = buf.seal(h, chain);
  publish_segment(ops, dir, buf);
  const std::string path = dir + "/" + segment_name(2, 5);
  const auto seg = read_segment(ops, path, /*chain=*/0x1234);
  EXPECT_EQ(seg.header.spec_hash, h.spec_hash);
  EXPECT_EQ(seg.header.shard, 2);
  EXPECT_EQ(seg.header.seg_index, 5);
  EXPECT_EQ(seg.header.first_edge, 320);
  EXPECT_EQ(seg.header.num_edges, 4);
  std::vector<std::pair<index_t, index_t>> back;
  seg.for_each_edge([&](index_t p, index_t q) { back.emplace_back(p, q); });
  EXPECT_EQ(back, edges);
  EXPECT_EQ(seg.payload_hash, payload);
  EXPECT_EQ(seg.chain_hash, chain);
  // The payload is the zigzag varints of the deltas from (0, 0): p moves
  // +1, 0, +3, +1 and q moves +2, +298, -300, +1.  Its 10 bytes are
  // zero-padded to two words, and all three hashes fold those words.
  const unsigned char padded[16] = {0x02, 0x04, 0x00, 0xd4, 0x04, 0x06,
                                    0xd7, 0x04, 0x02, 0x02, 0, 0, 0, 0,
                                    0, 0};
  const std::string bytes = *ops.read_file(path);
  ASSERT_EQ(bytes.size(), kSegmentHeadBytes + sizeof padded + 8);
  EXPECT_EQ(bytes.substr(0, 8), "KRNLSEG2");
  EXPECT_EQ(bytes.substr(kSegmentHeadBytes, sizeof padded),
            std::string(reinterpret_cast<const char*>(padded),
                        sizeof padded));
  EXPECT_EQ(payload, fnv1a64_words(padded, sizeof padded));
  EXPECT_EQ(chain, fnv1a64_words(padded, sizeof padded, 0x1234));
  const std::int64_t head[6] = {0xabcdef, 2, 5, 320, 4, 10};
  EXPECT_EQ(bytes.substr(8, sizeof head),
            std::string(reinterpret_cast<const char*>(head), sizeof head));
  std::uint64_t trailer = 0;
  std::memcpy(&trailer, bytes.data() + bytes.size() - sizeof trailer,
              sizeof trailer);
  EXPECT_EQ(trailer, fnv1a64_words(padded, sizeof padded,
                                   fnv1a64_words(head, sizeof head)));
  // No .tmp remains after a successful seal.
  for (const auto& name : ops.list_dir(dir)) {
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
  }
}

TEST(DurableFormat, RecordsNeverExceedTwelveBytes) {
  // Ids in [0, 2^40] give zigzag deltas of at most 2^41, so each varint
  // takes at most 6 bytes: a record is never larger than two int64 words,
  // even when every delta jumps across the whole id range.
  constexpr index_t kTop = index_t{1} << 40;
  std::vector<std::pair<index_t, index_t>> edges;
  for (index_t i = 0; i < 64; ++i) {
    edges.emplace_back(i % 2 ? kTop - i : i, i % 2 ? i : kTop - i);
  }
  const auto n = static_cast<count_t>(edges.size());
  SegmentBuffer buf(n);
  for (const auto& [p, q] : edges) buf.push(p, q);
  SegmentHeader h;
  h.num_edges = n;
  std::uint64_t chain = kFnvBasis;
  (void)buf.seal(h, chain);
  const std::size_t payload = buf.size_bytes() - kSegmentHeadBytes - 8;
  EXPECT_LE(payload, 12 * edges.size());
  EXPECT_GT(payload, 11 * edges.size()); // the deltas really are wide
  const auto seg = decode_segment(
      std::string(static_cast<const char*>(buf.data()), buf.size_bytes()),
      "wide");
  std::vector<std::pair<index_t, index_t>> back;
  seg.for_each_edge([&](index_t p, index_t q) { back.emplace_back(p, q); });
  EXPECT_EQ(back, edges);
}

TEST(DurableFormat, SegmentCorruptionIsTyped) {
  const TempDir tmp("durable_seg_corrupt");
  const auto& dir = tmp.path();
  FileOps& ops = real_file_ops();
  SegmentHeader h;
  h.num_edges = 2;
  SegmentBuffer buf(2);
  buf.push(1, 2);
  buf.push(3, 4);
  std::uint64_t chain = kFnvBasis;
  (void)buf.seal(h, chain);
  publish_segment(ops, dir, buf);
  const std::string path = dir + "/" + segment_name(0, 0);
  const std::string good = *ops.read_file(path);

  const auto rewrite = [&](const std::string& bytes) {
    auto f = ops.create(path);
    write_all(*f, bytes.data(), bytes.size());
    f->close();
  };
  // Flipped payload byte → checksum failure.
  std::string flipped = good;
  flipped[20] = static_cast<char>(flipped[20] ^ 0x40);
  rewrite(flipped);
  EXPECT_THROW((void)read_segment(ops, path), validation_error);
  // Truncated tail (torn write) → typed error, not a crash.
  rewrite(good.substr(0, good.size() - 5));
  EXPECT_THROW((void)read_segment(ops, path), validation_error);
  // Wrong magic.
  std::string magic = good;
  magic[0] = 'X';
  rewrite(magic);
  EXPECT_THROW((void)read_segment(ops, path), validation_error);
  // Trailing garbage.
  rewrite(good + "junk0000");
  EXPECT_THROW((void)read_segment(ops, path), validation_error);
  // Missing file is io_error (distinct failure class).
  ops.remove(path);
  EXPECT_THROW((void)read_segment(ops, path), io_error);
}

TEST(DurableFormat, EveryBitFlipIsTypedOrHarmless) {
  // Fuzz parity with the other decoders: every single-bit flip of a
  // KRNLSEG2 segment (holding multi-byte varints of both signs, and pad
  // bytes) and of a KRNLMAN1 manifest raises a typed
  // validation_error / io_error or reads back the original value.  Any
  // other exception (bad_alloc included) fails the test.
  const TempDir tmp("durable_bit_flips");
  const auto& dir = tmp.path();
  FileOps& ops = real_file_ops();
  SegmentHeader h;
  h.spec_hash = 0x5eed;
  h.shard = 1;
  h.seg_index = 2;
  h.first_edge = 64;
  h.num_edges = 3;
  const std::vector<index_t> want = {1, 2, 1, 300, 200, 5};
  SegmentBuffer buf(3);
  for (std::size_t i = 0; i < want.size(); i += 2) {
    buf.push(want[i], want[i + 1]);
  }
  std::uint64_t chain = kFnvBasis;
  (void)buf.seal(h, chain);
  const std::string seg(static_cast<const char*>(buf.data()),
                        buf.size_bytes());
  const auto flip = [](std::string bytes, std::size_t bit) {
    bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    return bytes;
  };
  for (std::size_t bit = 0; bit < seg.size() * 8; ++bit) {
    try {
      const auto back = decode_segment(flip(seg, bit), "flipped");
      EXPECT_EQ(back.header.spec_hash, h.spec_hash) << "bit " << bit;
      EXPECT_EQ(back.header.first_edge, h.first_edge) << "bit " << bit;
      std::vector<index_t> words;
      back.for_each_edge([&](index_t p, index_t q) {
        words.insert(words.end(), {p, q});
      });
      EXPECT_EQ(words, want) << "bit " << bit;
    } catch (const validation_error&) {
    } catch (const io_error&) {
    }
  }

  Manifest man;
  man.spec_hash = 77;
  man.segment_edges = 64;
  man.shards = {{2, 128, 0xaa}, {1, 40, 0xbb}};
  write_manifest(ops, dir, man);
  const std::string path = dir + "/MANIFEST";
  const std::string good = *ops.read_file(path);
  for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
    const std::string bytes = flip(good, bit);
    auto f = ops.create(path);
    write_all(*f, bytes.data(), bytes.size());
    f->close();
    try {
      const auto back = read_manifest(ops, dir);
      ASSERT_TRUE(back.has_value()) << "bit " << bit;
      EXPECT_EQ(back->spec_hash, man.spec_hash) << "bit " << bit;
      EXPECT_EQ(back->segment_edges, man.segment_edges) << "bit " << bit;
      ASSERT_EQ(back->shards.size(), man.shards.size()) << "bit " << bit;
      for (std::size_t s = 0; s < man.shards.size(); ++s) {
        EXPECT_EQ(back->shards[s].edges, man.shards[s].edges);
        EXPECT_EQ(back->shards[s].chain_hash, man.shards[s].chain_hash);
      }
    } catch (const validation_error&) {
    } catch (const io_error&) {
    }
  }
}

// ---------------------------------------------------------------------------
// Hostile record streams: a valid header and trailer checksum around a
// malformed KRNLSEG2 payload.

/// `v` as a LEB128 varint.
std::string varint(std::uint64_t v) {
  std::string out;
  for (; v >= 0x80; v >>= 7) out += static_cast<char>(v | 0x80);
  out += static_cast<char>(v);
  return out;
}

/// The zigzag varint of the delta `d`.
std::string delta(std::int64_t d) {
  const auto u = static_cast<std::uint64_t>(d);
  return varint((u << 1) ^ (0 - (u >> 63)));
}

/// The segment image of `h` around `payload`, whose first
/// `payload_bytes` bytes are the record stream and the rest, zero-filled
/// to a word, its pad; sealed with a valid trailer checksum.
std::string seal_raw(const SegmentHeader& h, std::string payload,
                     std::size_t payload_bytes) {
  payload.resize((payload.size() + 7) / 8 * 8, '\0');
  const std::int64_t head[6] = {static_cast<std::int64_t>(h.spec_hash),
                                h.shard,
                                h.seg_index,
                                h.first_edge,
                                h.num_edges,
                                static_cast<std::int64_t>(payload_bytes)};
  std::string out = "KRNLSEG2";
  out.append(reinterpret_cast<const char*>(head), sizeof head);
  out += payload;
  const std::uint64_t sum = fnv1a64_words(out.data() + 8, out.size() - 8);
  out.append(reinterpret_cast<const char*>(&sum), sizeof sum);
  return out;
}

struct HostilePayload {
  const char* what;
  count_t num_edges;
  std::string payload;
  std::size_t payload_bytes;
};

std::vector<HostilePayload> hostile_payloads() {
  const std::string rec = delta(1) + delta(2); // the record (1, 2)
  const std::string huge = delta((std::int64_t{1} << 40) + 1) + delta(0);
  return {
      {"truncated last varint", 2, rec + delta(0) + "\x84", rec.size() + 2},
      {"11-byte varint", 1, std::string(10, '\x80') + "\x01" + delta(0), 12},
      {"varint with bits past 64", 1,
       std::string(9, '\x80') + "\x02" + delta(0), 11},
      {"one byte past the last record", 1, rec + delta(0), rec.size() + 1},
      {"non-zero pad byte", 1, rec + std::string("\0\0\x07", 3), rec.size()},
      {"delta drives p below 0", 2, rec + delta(-2) + delta(0),
       rec.size() + 2},
      {"id above 2^40", 1, huge, huge.size()},
      {"more records than payload bytes", count_t{1} << 40, rec, rec.size()},
  };
}

/// body() must throw the decoder's validation_error (not the checksum's).
void expect_record_error(const std::function<void()>& body) {
  try {
    body();
    ADD_FAILURE() << "hostile payload accepted";
  } catch (const validation_error& e) {
    EXPECT_EQ(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

TEST(HostileSegment, MalformedRecordStreamsAreTypedEverywhere) {
  const auto kp = test_product();
  const TempDir tmp("durable_hostile");
  const auto& dir = tmp.path();
  const auto opt = test_options(dir);
  generate_durable(real_file_ops(), kp, opt);
  FileOps& ops = real_file_ops();
  const std::string path = dir + "/" + segment_name(1, 1);
  const SegmentHeader committed = read_segment(ops, path).header;
  const kron::PartitionedStream part(kp, opt.shards);

  // The control: seal_raw around a well-formed stream decodes.
  SegmentHeader one = committed;
  one.num_edges = 1;
  const std::string rec = delta(1) + delta(2);
  std::vector<index_t> back;
  decode_segment(seal_raw(one, rec, rec.size()), path)
      .for_each_edge(
          [&](index_t p, index_t q) { back.insert(back.end(), {p, q}); });
  EXPECT_EQ(back, (std::vector<index_t>{1, 2}));

  for (const auto& bad : hostile_payloads()) {
    SCOPED_TRACE(bad.what);
    SegmentHeader h = committed;
    h.num_edges = bad.num_edges;
    const std::string bytes = seal_raw(h, bad.payload, bad.payload_bytes);
    expect_record_error([&] { (void)decode_segment(bytes, path); });
    auto f = ops.create(path);
    write_all(*f, bytes.data(), bytes.size());
    f->close();
    expect_record_error([&] { (void)verify_store(ops, kp, opt); });
    expect_record_error(
        [&] { (void)dist::load_shard(ops, dir, kp, part, 1); });
  }
}

TEST(DurableFormat, ManifestRoundTripAndCorruption) {
  const TempDir tmp("durable_man_roundtrip");
  const auto& dir = tmp.path();
  FileOps& ops = real_file_ops();
  EXPECT_FALSE(read_manifest(ops, dir).has_value());
  Manifest man;
  man.spec_hash = 77;
  man.segment_edges = 64;
  man.shards = {{2, 128, 0xaa}, {1, 40, 0xbb}};
  write_manifest(ops, dir, man);
  const auto back = read_manifest(ops, dir);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->spec_hash, 77u);
  EXPECT_EQ(back->segment_edges, 64);
  ASSERT_EQ(back->shards.size(), 2u);
  EXPECT_EQ(back->shards[0].edges, 128);
  EXPECT_EQ(back->shards[1].chain_hash, 0xbbu);
  EXPECT_EQ(back->total_edges(), 168);

  std::string bytes = *ops.read_file(dir + "/MANIFEST");
  bytes[12] = static_cast<char>(bytes[12] ^ 1);
  auto f = ops.create(dir + "/MANIFEST");
  write_all(*f, bytes.data(), bytes.size());
  f->close();
  EXPECT_THROW((void)read_manifest(ops, dir), validation_error);
}

TEST(DurableFormat, OlderManifestVersionIsRefused) {
  // A version-1 manifest recorded a spec hash of the byte-serial fold,
  // and a version-2 store holds segments of (p, q) words, so both must be
  // refused by their version before any hash or segment is read —
  // resealed here with a valid checksum, so only the version word is off.
  const auto kp = test_product();
  for (const std::int64_t version : {1, 2}) {
    SCOPED_TRACE("version " + std::to_string(version));
    const TempDir tmp("durable_man_version");
    const auto& dir = tmp.path();
    auto opt = test_options(dir);
    generate_durable(real_file_ops(), kp, opt);
    FileOps& ops = real_file_ops();
    std::string bytes = *ops.read_file(dir + "/MANIFEST");
    std::memcpy(bytes.data() + 8, &version, sizeof version);
    const std::uint64_t sum =
        fnv1a64_words(bytes.data() + 8, bytes.size() - 16);
    std::memcpy(bytes.data() + bytes.size() - 8, &sum, sizeof sum);
    auto f = ops.create(dir + "/MANIFEST");
    write_all(*f, bytes.data(), bytes.size());
    f->close();

    const std::string want =
        "unsupported manifest version " + std::to_string(version);
    const auto expect_version_error = [&](const std::function<void()>& body) {
      try {
        body();
        ADD_FAILURE() << "older manifest accepted";
      } catch (const validation_error& e) {
        EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
            << e.what();
      }
    };
    expect_version_error([&] { (void)read_manifest(ops, dir); });
    expect_version_error([&] { (void)verify_store(ops, kp, opt); });
    opt.resume = true;
    expect_version_error([&] { generate_durable(ops, kp, opt); });
  }
}

// ---------------------------------------------------------------------------
// The kill/resume matrix — the heart of the battery.

/// Run generation under a kill plan; returns true when the run completed
/// (the plan's point was never reached again).
bool run_with_kill(const kron::BipartiteKronecker& kp,
                   const StreamGenOptions& opt, const std::string& point,
                   std::uint64_t hits) {
  FsFaultPlan plan;
  plan.kill_point = point;
  plan.kill_hits = hits;
  FaultyFileOps faulty(real_file_ops(), plan);
  try {
    generate_durable(faulty, kp, opt);
    return true;
  } catch (const killed_at& k) {
    EXPECT_EQ(k.point, point);
    return false;
  }
}

TEST(KillResumeMatrix, EveryFaultPointResumesByteIdentical) {
  const auto kp = test_product();
  at_each_pool_width([&] {
    for (const auto& point : all_fault_points()) {
      for (const std::uint64_t hits : {std::uint64_t{1}, std::uint64_t{7}}) {
        SCOPED_TRACE(point + " hits=" + std::to_string(hits));
        const TempDir tmp("durable_matrix");
        const auto& dir = tmp.path();
        auto opt = test_options(dir);
        const bool done = run_with_kill(kp, opt, point, hits);
        if (!done) {
          // Resume with clean ops — must complete and reproduce the
          // uninterrupted run byte for byte.
          opt.resume = true;
          generate_durable(real_file_ops(), kp, opt);
        }
        EXPECT_EQ(store_bytes(dir), reference_store());
      }
    }
  });
}

TEST(KillResumeMatrix, RepeatedKillsStillMakeProgress) {
  // A run that dies at every k-th segment seal, resumed each time, must
  // terminate and reproduce the reference — the commit protocol
  // guarantees at least one segment of progress per life.
  const auto kp = test_product();
  at_each_pool_width([&] {
    const TempDir tmp("durable_kill_storm");
    const auto& dir = tmp.path();
    auto opt = test_options(dir);
    int lives = 0;
    for (;; opt.resume = true) {
      ++lives;
      ASSERT_LT(lives, 200) << "kill storm failed to converge";
      if (run_with_kill(kp, opt, "segment:rename:after", 2)) break;
    }
    EXPECT_GT(lives, 2); // the plan actually fired
    EXPECT_EQ(store_bytes(dir), reference_store());
  });
}

TEST(KillResumeMatrix, AdoptionCoversSealToCommitWindow) {
  // Killed after a segment seal but before the manifest commit: the
  // sealed segment is NOT in the manifest, and resume must adopt it
  // rather than regenerate (and must stay byte-identical).
  const auto kp = test_product();
  const TempDir tmp("durable_adoption");
  const auto& dir = tmp.path();
  auto opt = test_options(dir);
  ASSERT_FALSE(run_with_kill(kp, opt, "manifest:write:before", 2));
  opt.resume = true;
  const auto rep = generate_durable(real_file_ops(), kp, opt);
  EXPECT_GE(rep.adopted_segments, 1);
  EXPECT_EQ(store_bytes(dir), reference_store());
}

TEST(KillResumeMatrix, TornManifestNeverCommitsPartially) {
  // Death mid-manifest-write with a torn prefix on disk: the old
  // manifest was already replaced only on rename, so the store either
  // has the previous manifest or none — resume completes either way.
  const auto kp = test_product();
  const TempDir tmp("durable_torn_manifest");
  const auto& dir = tmp.path();
  auto opt = test_options(dir);
  ASSERT_FALSE(run_with_kill(kp, opt, "manifest:write:torn", 3));
  opt.resume = true;
  generate_durable(real_file_ops(), kp, opt);
  EXPECT_EQ(store_bytes(dir), reference_store());
}

// ---------------------------------------------------------------------------
// Fail injection (io_error, no crash) and short writes.

TEST(FaultInjection, FailedOpsThrowIoErrorAndStoreStaysResumable) {
  const auto kp = test_product();
  at_each_pool_width([&] {
    for (const std::string point :
         {"segment:sync:before", "manifest:rename:before",
          "segment:write:before"}) {
      SCOPED_TRACE(point);
      const TempDir tmp("durable_fail_inject");
      const auto& dir = tmp.path();
      auto opt = test_options(dir);
      FsFaultPlan plan;
      plan.fail_point = point;
      plan.fail_hits = 3;
      FaultyFileOps faulty(real_file_ops(), plan);
      EXPECT_THROW(generate_durable(faulty, kp, opt), io_error);
      opt.resume = true;
      generate_durable(real_file_ops(), kp, opt);
      EXPECT_EQ(store_bytes(dir), reference_store());
    }
  });
}

TEST(FaultInjection, ShortWritesAreLoopedOver) {
  const auto kp = test_product();
  const TempDir tmp("durable_short_writes");
  const auto& dir = tmp.path();
  FsFaultPlan plan;
  plan.short_write_cap = 3; // pathological: 3 bytes per write call
  FaultyFileOps faulty(real_file_ops(), plan);
  generate_durable(faulty, kp, test_options(dir));
  EXPECT_EQ(store_bytes(dir), reference_store());
}

TEST(FaultInjection, PointsHitAreRecordedInOrder) {
  const auto kp = test_product();
  const TempDir tmp("durable_points_hit");
  const auto& dir = tmp.path();
  FaultyFileOps faulty(real_file_ops(), FsFaultPlan{});
  generate_durable(faulty, kp, test_options(dir));
  const auto& points = faulty.points_hit();
  ASSERT_FALSE(points.empty());
  // A seal is write* → sync → rename, manifest after segment.
  EXPECT_EQ(points.front(), "segment:write:before");
  bool saw_manifest_rename = false;
  for (const auto& p : points) {
    saw_manifest_rename |= p == "manifest:rename:after";
  }
  EXPECT_TRUE(saw_manifest_rename);
}

// ---------------------------------------------------------------------------
// Torn-segment fuzz: random corruption of a killed store's tail.

TEST(TornSegmentFuzz, RandomTailCorruptionIsDetectedOrDiscarded) {
  const auto kp = test_product();
  at_each_pool_width([&] {
    const int iters = static_cast<int>(12 * fault_rate_scale());
    Rng rng(1234);
    FileOps& ops = real_file_ops();
    for (int it = 0; it < iters; ++it) {
      SCOPED_TRACE(it);
      const TempDir tmp("durable_fuzz");
      const auto& dir = tmp.path();
      auto opt = test_options(dir);
      // Die somewhere mid-run (vary the seal at which death strikes).
      const std::uint64_t hits = 1 + rng.next_below(6);
      ASSERT_FALSE(run_with_kill(kp, opt, "segment:rename:after", hits));
      // Corrupt the tail: pick any non-manifest file and mangle it.
      auto names = ops.list_dir(dir);
      std::vector<std::string> segs;
      for (const auto& n : names) {
        if (n.rfind(".krnlseg") != std::string::npos) segs.push_back(n);
      }
      ASSERT_FALSE(segs.empty());
      const auto& victim =
          segs[static_cast<std::size_t>(rng.next_below(segs.size()))];
      std::string bytes = *ops.read_file(dir + "/" + victim);
      const bool truncate = rng.next_below(2) == 0;
      if (truncate) {
        bytes.resize(static_cast<std::size_t>(rng.next_below(bytes.size())));
      } else {
        const auto at =
            static_cast<std::size_t>(rng.next_below(bytes.size()));
        bytes[at] = static_cast<char>(bytes[at] ^ 0x5a);
      }
      {
        auto f = ops.create(dir + "/" + victim);
        write_all(*f, bytes.data(), bytes.size());
        f->close();
      }
      // The corrupted file is either inside the committed range — resume
      // must refuse with a typed validation_error — or past it — resume
      // must discard and regenerate it, landing byte-identical.
      opt.resume = true;
      try {
        generate_durable(ops, kp, opt);
        EXPECT_EQ(store_bytes(dir), reference_store());
      } catch (const validation_error&) {
        // Corruption inside the committed range: correctly refused.
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Streaming validation against the ground-truth oracle.

TEST(StreamValidation, PerturbedEdgeIsCaught) {
  const auto kp = test_product();
  kron::GroundTruthOracle oracle(kp);
  const kron::PartitionedStream part(kp, 1);
  StreamValidator v(oracle, /*seed=*/1, /*rate=*/1);
  v.begin_shard(false);
  count_t n = 0;
  EXPECT_THROW(
      {
        part.for_each_entry(0, [&](index_t p, index_t q) {
          // Perturb the 10th edge to a guaranteed non-edge (q out of
          // range maps to "not an edge", the try_edge probe form).
          v.observe(p, ++n == 10 ? kp.num_vertices() + 7 : q);
        });
        v.end_shard();
      },
      validation_error);
}

TEST(StreamValidation, DroppedEdgeIsCaughtByDegreeCheck) {
  const auto kp = test_product();
  kron::GroundTruthOracle oracle(kp);
  const kron::PartitionedStream part(kp, 1);
  StreamValidator v(oracle, /*seed=*/1, /*rate=*/1);
  v.begin_shard(false);
  count_t n = 0;
  EXPECT_THROW(
      {
        part.for_each_entry(0, [&](index_t p, index_t q) {
          if (++n != 5) v.observe(p, q); // silently drop one edge
        });
        v.end_shard();
      },
      validation_error);
}

TEST(StreamValidation, CleanStreamPassesAndSamplesSublinearly) {
  const auto kp = test_product();
  kron::GroundTruthOracle oracle(kp);
  const kron::PartitionedStream part(kp, 1);
  const count_t total = part.entries_of(0);
  // rate=1 checks everything…
  StreamValidator all(oracle, 1, 1);
  all.begin_shard(false);
  part.for_each_entry(0, [&](index_t p, index_t q) { all.observe(p, q); });
  all.end_shard();
  EXPECT_EQ(all.edges_checked(), total);
  EXPECT_GT(all.rows_checked(), 0);
  // …while a high rate probes a strict sample (sublinear work), from
  // O(1) validator state either way.
  StreamValidator sparse(oracle, 1, 64);
  sparse.begin_shard(false);
  part.for_each_entry(0,
                      [&](index_t p, index_t q) { sparse.observe(p, q); });
  sparse.end_shard();
  EXPECT_LT(sparse.edges_checked(), total / 8);
  static_assert(sizeof(StreamValidator) < 128,
                "validator must hold O(1) state, not per-row structures");
}

TEST(StreamValidation, SamplingKeepsOneInRate) {
  // At rate 64 the mixer keeps between 1/128 and 1/32 of the rows and of
  // the edges, pooled over seeds (63 rows alone are too few to judge).
  const auto kp = test_product();
  kron::GroundTruthOracle oracle(kp);
  const kron::PartitionedStream part(kp, 1);
  const auto rows = static_cast<double>(kp.num_vertices());
  const auto edges = static_cast<double>(part.entries_of(0));
  double rows_sampled = 0;
  double edges_sampled = 0;
  constexpr int kSeeds = 64;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    StreamValidator v(oracle, seed, 64);
    v.begin_shard(false);
    part.for_each_entry(0, [&](index_t p, index_t q) { v.observe(p, q); });
    v.end_shard();
    rows_sampled += static_cast<double>(v.rows_checked());
    edges_sampled += static_cast<double>(v.edges_checked());
  }
  const double row_share = rows_sampled / (kSeeds * rows);
  const double edge_share = edges_sampled / (kSeeds * edges);
  EXPECT_GE(row_share, 1.0 / 128);
  EXPECT_LE(row_share, 1.0 / 32);
  EXPECT_GE(edge_share, 1.0 / 128);
  EXPECT_LE(edge_share, 1.0 / 32);
  // Deterministic per (seed, rate).
  StreamValidator a(oracle, 3, 64);
  StreamValidator b(oracle, 3, 64);
  for (auto* v : {&a, &b}) {
    v->begin_shard(false);
    part.for_each_entry(0, [&](index_t p, index_t q) { v->observe(p, q); });
    v->end_shard();
  }
  EXPECT_EQ(a.rows_checked(), b.rows_checked());
  EXPECT_EQ(a.edges_checked(), b.edges_checked());
}

TEST(StreamValidation, VerifyStoreIsReadOnly) {
  // verify_store never repairs: a stray .tmp stays where it is, and a
  // sealed segment past the committed range is reported, not adopted.
  const auto kp = test_product();
  const TempDir tmp("durable_verify_read_only");
  const auto& dir = tmp.path();
  const auto opt = test_options(dir);
  const auto rep = generate_durable(real_file_ops(), kp, opt);
  FileOps& ops = real_file_ops();
  {
    auto f = ops.create(dir + "/" + segment_name(1, 9) + ".tmp");
    write_all(*f, "torn", 4);
    f->close();
  }
  const auto with_tmp = store_bytes(dir);
  EXPECT_NO_THROW((void)verify_store(ops, kp, opt));
  EXPECT_EQ(store_bytes(dir), with_tmp);

  const auto& shard0 = rep.manifest.shards[0];
  SegmentHeader h;
  h.spec_hash = spec_hash(kp);
  h.shard = 0;
  h.seg_index = shard0.segments;
  h.first_edge = shard0.edges;
  h.num_edges = 1;
  SegmentBuffer extra(1);
  extra.push(0, 1);
  std::uint64_t chain = shard0.chain_hash;
  (void)extra.seal(h, chain);
  publish_segment(ops, dir, extra);
  const auto with_extra = store_bytes(dir);
  EXPECT_THROW((void)verify_store(ops, kp, opt), validation_error);
  EXPECT_EQ(store_bytes(dir), with_extra);
}

TEST(StreamValidation, VerifyStoreCatchesCommittedCorruption) {
  const auto kp = test_product();
  const TempDir tmp("durable_verify_corrupt");
  const auto& dir = tmp.path();
  const auto opt = test_options(dir);
  generate_durable(real_file_ops(), kp, opt);
  EXPECT_NO_THROW((void)verify_store(real_file_ops(), kp, opt));
  // Flip one payload byte of a committed segment.
  const std::string path = dir + "/" + segment_name(1, 1);
  std::string bytes = *real_file_ops().read_file(path);
  bytes[48] = static_cast<char>(bytes[48] ^ 2);
  auto f = real_file_ops().create(path);
  write_all(*f, bytes.data(), bytes.size());
  f->close();
  EXPECT_THROW((void)verify_store(real_file_ops(), kp, opt),
               validation_error);
}

TEST(StreamValidation, ResumeAgainstDifferentSpecIsRefused) {
  const auto kp = test_product();
  const TempDir tmp("durable_spec_mismatch");
  const auto& dir = tmp.path();
  auto opt = test_options(dir);
  generate_durable(real_file_ops(), kp, opt);
  Rng rng(99);
  const auto other = kron::BipartiteKronecker::raw(
      gen::random_nonbipartite_connected(9, 16, rng),
      gen::preferential_bipartite(3, 4, 8, rng));
  opt.resume = true;
  EXPECT_THROW(generate_durable(real_file_ops(), other, opt),
               validation_error);
}

// ---------------------------------------------------------------------------
// Resume cursor arithmetic.

TEST(ResumeCursor, ForEachEntryFromMatchesSuffixAtEveryOffset) {
  const auto kp = test_product();
  const kron::PartitionedStream part(kp, 3);
  const auto ref = test_support::kron_reference(kp.left(), kp.right());
  for (index_t r = 0; r < 3; ++r) {
    const auto [plo, phi] = part.owned_product_rows(r);
    const auto full = test_support::entries_of_rows(ref, plo, phi);
    ASSERT_EQ(part.entries_of(r), static_cast<count_t>(full.size()));
    // Every offset: boundaries, row interiors, pair interiors, the end.
    for (count_t skip = 0; skip <= static_cast<count_t>(full.size());
         ++skip) {
      std::vector<std::pair<index_t, index_t>> tail;
      part.for_each_entry_from(
          r, skip, [&](index_t p, index_t q) { tail.emplace_back(p, q); });
      ASSERT_EQ(tail.size(), full.size() - static_cast<std::size_t>(skip))
          << "rank " << r << " skip " << skip;
      ASSERT_TRUE(std::equal(tail.begin(), tail.end(),
                             full.begin() + static_cast<std::ptrdiff_t>(skip)))
          << "rank " << r << " skip " << skip;
    }
  }
}

TEST(ResumeCursor, ScaleChainCollapseStreamsTheSameProduct) {
  // collapse_pair regroups the chain; the streamed edge set must equal
  // the materialized chain product's.
  Rng rng(5);
  auto a = gen::random_nonbipartite_connected(5, 8, rng);
  auto b = gen::preferential_bipartite(2, 3, 5, rng);
  const auto chain = kron::ChainKronecker::of({a, b, b});
  auto [l, r] = chain.collapse_pair();
  const auto kp = kron::BipartiteKronecker::raw(l, r);
  EXPECT_EQ(kp.num_vertices(), chain.num_vertices());
  EXPECT_EQ(kp.num_edges(), chain.num_edges());
  const auto direct = chain.materialize();
  const auto via_pair = kp.materialize();
  EXPECT_EQ(direct.row_ptr(), via_pair.row_ptr());
  EXPECT_EQ(direct.col_idx(), via_pair.col_idx());
}

// ---------------------------------------------------------------------------
// Concurrent shards: serial-identical output, first failure wins.

/// Forwards every call to real_file_ops() except the publish of segment
/// file `victim`, where it calls `fail` instead (which throws).  Counts
/// the calls made after that: none may follow a failure.
class FailAtPublish final : public FileOps {
public:
  FailAtPublish(std::string victim, std::function<void()> fail)
      : victim_(std::move(victim)), fail_(std::move(fail)) {}

  std::unique_ptr<WritableFile> create(const std::string& path) override {
    note();
    return real_file_ops().create(path);
  }
  void publish(const std::string& tmp_path,
               const std::string& final_path) override {
    note();
    if (final_path.size() >= victim_.size() &&
        final_path.compare(final_path.size() - victim_.size(),
                           victim_.size(), victim_) == 0) {
      failed_ = true;
      fail_();
    }
    real_file_ops().publish(tmp_path, final_path);
  }
  bool remove(const std::string& path) override {
    note();
    return real_file_ops().remove(path);
  }
  std::vector<std::string> list_dir(const std::string& dir) override {
    note();
    return real_file_ops().list_dir(dir);
  }
  std::optional<std::string> read_file(const std::string& path) override {
    note();
    return real_file_ops().read_file(path);
  }
  void make_dir(const std::string& dir) override {
    note();
    real_file_ops().make_dir(dir);
  }

  [[nodiscard]] int calls_after_failure() const { return late_; }

private:
  void note() { late_ += failed_ ? 1 : 0; }

  std::string victim_;
  std::function<void()> fail_;
  bool failed_ = false;
  int late_ = 0;
};

TEST(ShardConcurrency, ChainHashesMatchTheSerialGenerator) {
  // Per-shard chain hashes of the test product's KRNLSEG2 store, as the
  // one-shard-at-a-time (pool width 1) generator writes them.
  constexpr std::uint64_t kSerialChains[3] = {
      0x9becbcc25ad3fcbdULL, 0x9c9160d464eca087ULL, 0x0449420f54447159ULL};
  const auto kp = test_product();
  std::vector<VerifyReport> reports;
  at_each_pool_width([&] {
    const TempDir tmp("durable_golden_chains");
    const auto opt = test_options(tmp.path());
    const auto rep = generate_durable(real_file_ops(), kp, opt);
    ASSERT_EQ(rep.manifest.shards.size(), 3u);
    for (std::size_t s = 0; s < 3; ++s) {
      EXPECT_EQ(rep.manifest.shards[s].chain_hash, kSerialChains[s]) << s;
    }
    EXPECT_EQ(store_bytes(tmp.path()), reference_store());
    reports.push_back(verify_store(real_file_ops(), kp, opt));
  });
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].segments, reports[1].segments);
  EXPECT_EQ(reports[0].edges, reports[1].edges);
  EXPECT_EQ(reports[0].rows_checked, reports[1].rows_checked);
  EXPECT_EQ(reports[0].edges_checked, reports[1].edges_checked);
}

TEST(ShardConcurrency, KillInALaterShardSurfacesAndResumes) {
  // Shard 2 dies publishing its second segment while shards 0 and 1 may
  // still be streaming: the caller sees exactly that kill, no FileOps
  // call follows it, and resume lands byte-identical.
  const auto kp = test_product();
  at_each_pool_width([&] {
    const TempDir tmp("durable_kill_later_shard");
    auto opt = test_options(tmp.path());
    const std::string victim = segment_name(2, 1);
    FailAtPublish ops(victim, [&] { throw killed_at{victim}; });
    try {
      generate_durable(ops, kp, opt);
      ADD_FAILURE() << "the kill never fired";
    } catch (const killed_at& k) {
      EXPECT_EQ(k.point, victim);
    }
    EXPECT_EQ(ops.calls_after_failure(), 0);
    opt.resume = true;
    generate_durable(real_file_ops(), kp, opt);
    EXPECT_EQ(store_bytes(tmp.path()), reference_store());
  });
}

TEST(ShardConcurrency, ValidationErrorInShardTwoSurfacesAndResumes) {
  const auto kp = test_product();
  at_each_pool_width([&] {
    const TempDir tmp("durable_validation_shard_two");
    auto opt = test_options(tmp.path());
    FailAtPublish ops(segment_name(2, 0), [] {
      throw validation_error("injected: shard 2 drifted");
    });
    try {
      generate_durable(ops, kp, opt);
      ADD_FAILURE() << "the validation_error never surfaced";
    } catch (const validation_error& e) {
      EXPECT_STREQ(e.what(), "injected: shard 2 drifted");
    }
    EXPECT_EQ(ops.calls_after_failure(), 0);
    opt.resume = true;
    generate_durable(real_file_ops(), kp, opt);
    EXPECT_EQ(store_bytes(tmp.path()), reference_store());

    // verify_store: corruption in shard 2 alone surfaces as its
    // validation_error, whichever shard finishes first.
    const std::string path = tmp.path() + "/" + segment_name(2, 1);
    std::string bytes = *real_file_ops().read_file(path);
    bytes[60] = static_cast<char>(bytes[60] ^ 4);
    auto f = real_file_ops().create(path);
    write_all(*f, bytes.data(), bytes.size());
    f->close();
    try {
      (void)verify_store(real_file_ops(), kp, opt);
      ADD_FAILURE() << "corrupt shard 2 passed verification";
    } catch (const validation_error& e) {
      EXPECT_NE(std::string(e.what()).find(segment_name(2, 1)),
                std::string::npos)
          << e.what();
    }
  });
}

// ---------------------------------------------------------------------------
// Report bookkeeping.

TEST(Report, CountersAreConsistent) {
  const auto kp = test_product();
  const TempDir tmp("durable_report");
  const auto& dir = tmp.path();
  auto opt = test_options(dir);
  const auto cold = generate_durable(real_file_ops(), kp, opt);
  const kron::PartitionedStream part(kp, opt.shards);
  count_t total = 0;
  for (index_t s = 0; s < opt.shards; ++s) total += part.entries_of(s);
  EXPECT_EQ(cold.edges_written, total);
  EXPECT_EQ(cold.edges_resumed, 0);
  EXPECT_EQ(cold.manifest.total_edges(), total);
  EXPECT_GT(cold.segments_sealed, opt.shards); // several per shard
  EXPECT_GT(cold.rows_checked, 0);
  EXPECT_GT(cold.edges_checked, 0);

  opt.resume = true;
  const auto warm = generate_durable(real_file_ops(), kp, opt);
  EXPECT_EQ(warm.edges_written, 0);
  EXPECT_EQ(warm.edges_resumed, total);
  EXPECT_EQ(warm.verified_segments, cold.segments_sealed);
}

} // namespace
} // namespace kronlab::io
