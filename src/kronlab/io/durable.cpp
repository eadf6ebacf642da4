#include "kronlab/io/durable.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "kronlab/common/registry.hpp"
#include "kronlab/obs/log.hpp"
#include "kronlab/obs/stats.hpp"
#include "kronlab/obs/trace.hpp"
#include "kronlab/obs/watchdog.hpp"

namespace kronlab::io {

namespace {

constexpr const char (&kSegMagic)[8] = magic::kSeg2;
constexpr const char (&kManMagic)[8] = magic::kMan1;
/// 2: spec_hash moved from the byte-serial to the word-folded FNV-1a, so a
/// version-1 store records a hash no current spec reproduces.
/// 3: segment records moved from two int64 words to two delta varints, so
/// a version-2 store's segments and chain hashes no longer decode.
constexpr std::int64_t kManifestVersion = 3;
constexpr const char* kManifestName = "MANIFEST";

/// Hard cap on counts decoded from disk: four corrupt bytes must not
/// become a terabyte allocation.
constexpr std::int64_t kMaxPlausible = std::int64_t{1} << 40;

void append_words(std::string& out, const std::int64_t* words,
                  std::size_t n) {
  out.append(reinterpret_cast<const char*>(words),
             n * sizeof(std::int64_t));
}

/// Cursor over a byte buffer decoding 64-bit words; `what` labels the
/// failing field in errors.
struct WordReader {
  const std::string& bytes;
  std::size_t pos = 0;
  const std::string& path;

  std::int64_t next(const char* what) {
    if (pos + sizeof(std::int64_t) > bytes.size()) {
      throw validation_error("durable store: " + path +
                             " truncated while reading " + what);
    }
    std::int64_t w = 0;
    std::memcpy(&w, bytes.data() + pos, sizeof w);
    pos += sizeof w;
    return w;
  }
};

std::string shard_prefix(index_t shard) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "shard-%04lld-",
                static_cast<long long>(shard));
  return buf;
}

/// Write `nbytes` to `<final>.tmp`, fsync, and atomically publish it
/// under `final_name` — the one commit primitive both segments and the
/// manifest use.
void write_sealed(FileOps& ops, const std::string& dir,
                  const std::string& final_name, const void* bytes,
                  std::size_t nbytes) {
  static obs::Histogram& commit_hist = obs::histogram("io/segment_commit");
  obs::LatencyScope commit_latency(commit_hist);
  obs::StallGuard stall_guard("io/segment_commit");
  const std::string final_path = dir + "/" + final_name;
  const std::string tmp_path = final_path + ".tmp";
  {
    auto f = ops.create(tmp_path);
    write_all(*f, bytes, nbytes);
    f->sync();
    f->close();
  }
  ops.publish(tmp_path, final_path);
}

/// A segment's three hashes, folded over its payload in one pass: the
/// payload hash (from the basis), the trailer checksum (continuing from
/// the header words) and the shard's chain.  They are independent
/// multiply chains, so the loop costs one multiply latency per word,
/// not three.
struct PayloadHashes {
  std::uint64_t payload = kFnvBasis;
  std::uint64_t trailer = kFnvBasis;
  std::uint64_t chain = kFnvBasis;
};

void fold_payload(const void* data, std::size_t words, PayloadHashes& h) {
  const auto* at = static_cast<const unsigned char*>(data);
  std::uint64_t a = h.payload;
  std::uint64_t b = h.trailer;
  std::uint64_t c = h.chain;
  for (std::size_t i = 0; i < words; ++i, at += sizeof(std::uint64_t)) {
    std::uint64_t w;
    std::memcpy(&w, at, sizeof w);
    a = (a ^ w) * kFnvPrime;
    b = (b ^ w) * kFnvPrime;
    c = (c ^ w) * kFnvPrime;
  }
  h = {a, b, c};
}

/// Bytes of a segment's header words (between magic and payload).
constexpr std::size_t kHeaderBytes = kSegmentHeadBytes - sizeof kSegMagic;

constexpr std::size_t round_up_to_word(std::size_t n) {
  return (n + sizeof(std::int64_t) - 1) & ~(sizeof(std::int64_t) - 1);
}

/// Cursor over a KRNLSEG2 payload's varints; `path` names the segment in
/// errors.
struct VarintReader {
  const unsigned char* at;
  const unsigned char* end;
  const std::string& path;

  [[noreturn]] void fail(const char* what) const {
    throw validation_error("durable store: " + path + " " + what +
                           " (corrupt segment)");
  }

  std::uint64_t next() {
    if (at != end && *at < 0x80) return *at++;
    std::uint64_t v = 0;
    for (unsigned shift = 0;; shift += 7) {
      if (at == end) fail("ends inside a varint");
      const unsigned b = *at++;
      if (shift == 63 && b > 1) {
        fail(b & 0x80 ? "holds a varint longer than 10 bytes"
                      : "holds a varint with bits past 64");
      }
      v |= std::uint64_t{b & 0x7f} << shift;
      if ((b & 0x80) == 0) return v;
    }
  }

  /// prev plus the next zigzag delta, which must land in [0, kMaxPlausible].
  index_t next_id(index_t prev) {
    const std::uint64_t z = next();
    const std::uint64_t id =
        static_cast<std::uint64_t>(prev) + ((z >> 1) ^ (0 - (z & 1)));
    if (id > static_cast<std::uint64_t>(kMaxPlausible)) {
      fail("holds an id outside [0, 2^40]");
    }
    return static_cast<index_t>(id);
  }
};

} // namespace

std::string segment_name(index_t shard, count_t seg_index) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "shard-%04lld-seg-%06lld.krnlseg",
                static_cast<long long>(shard),
                static_cast<long long>(seg_index));
  return buf;
}

count_t Manifest::total_edges() const {
  count_t total = 0;
  for (const auto& s : shards) total += s.edges;
  return total;
}

// Sized for `capacity` worst-case records plus the pad and the trailer,
// so neither push nor seal grows it in a segment of that many records.
SegmentBuffer::SegmentBuffer(count_t capacity)
    : bytes_(kSegmentHeadBytes +
             kMaxRecordBytes * static_cast<std::size_t>(capacity) +
             2 * sizeof(std::int64_t)) {
  std::memcpy(bytes_.data(), kSegMagic, sizeof kSegMagic);
}

void SegmentBuffer::grow() { bytes_.resize(2 * bytes_.size()); }

void SegmentBuffer::clear() {
  end_ = kSegmentHeadBytes;
  num_edges_ = 0;
  prev_p_ = 0;
  prev_q_ = 0;
}

std::uint64_t SegmentBuffer::seal(const SegmentHeader& header,
                                  std::uint64_t& chain) {
  KRONLAB_TRACE_SPAN("io", "seal_segment");
  KRONLAB_REQUIRE(header.num_edges == num_edges_,
                  "segment header/payload edge count mismatch");
  header_ = header;
  const std::size_t payload_bytes = end_ - kSegmentHeadBytes;
  const std::size_t padded = round_up_to_word(payload_bytes);
  if (bytes_.size() < kSegmentHeadBytes + padded + sizeof(std::int64_t)) {
    grow();
  }
  unsigned char* payload = bytes_.data() + kSegmentHeadBytes;
  std::memset(payload + payload_bytes, 0, padded - payload_bytes);
  const std::int64_t head[kSegmentHeadWords - 1] = {
      static_cast<std::int64_t>(header.spec_hash), header.shard,
      header.seg_index, header.first_edge, header.num_edges,
      static_cast<std::int64_t>(payload_bytes)};
  std::memcpy(bytes_.data() + sizeof kSegMagic, head, sizeof head);
  PayloadHashes h;
  h.trailer = fnv1a64_words(head, sizeof head);
  h.chain = chain;
  fold_payload(payload, padded / sizeof(std::int64_t), h);
  std::memcpy(payload + padded, &h.trailer, sizeof h.trailer);
  end_ = kSegmentHeadBytes + padded + sizeof h.trailer;
  chain = h.chain;
  return h.payload;
}

void publish_segment(FileOps& ops, const std::string& dir,
                     const SegmentBuffer& seg) {
  write_sealed(ops, dir,
               segment_name(seg.header().shard, seg.header().seg_index),
               seg.data(), seg.size_bytes());
}

namespace {

/// decode_segment into `seg`, whose records buffer is reused: a walk over
/// many segments allocates it once.
void decode_into(const std::string& bytes, const std::string& path,
                 std::uint64_t chain, SegmentData& seg) {
  KRONLAB_TRACE_SPAN("io", "decode_segment");
  if (bytes.size() < sizeof kSegMagic ||
      std::memcmp(bytes.data(), kSegMagic, sizeof kSegMagic) != 0) {
    throw validation_error("durable store: " + path +
                           " is not a KRNLSEG2 segment (bad magic)");
  }
  WordReader r{bytes, sizeof kSegMagic, path};
  seg.header.spec_hash = static_cast<std::uint64_t>(r.next("spec hash"));
  seg.header.shard = r.next("shard");
  seg.header.seg_index = r.next("segment index");
  seg.header.first_edge = r.next("first edge");
  seg.header.num_edges = r.next("edge count");
  const std::int64_t payload_bytes = r.next("payload size");
  if (seg.header.shard < 0 || seg.header.seg_index < 0 ||
      seg.header.first_edge < 0 || seg.header.num_edges < 0 ||
      seg.header.num_edges > kMaxPlausible ||
      payload_bytes < 2 * seg.header.num_edges ||
      payload_bytes > static_cast<std::int64_t>(kMaxRecordBytes) *
                          seg.header.num_edges) {
    throw validation_error("durable store: " + path +
                           " has an implausible header (corrupt)");
  }
  const std::size_t padded =
      round_up_to_word(static_cast<std::size_t>(payload_bytes));
  const std::size_t whole = kSegmentHeadBytes + padded + sizeof(std::int64_t);
  if (bytes.size() < whole) {
    throw validation_error("durable store: " + path +
                           " is truncated (torn segment)");
  }
  if (bytes.size() > whole) {
    throw validation_error("durable store: " + path +
                           " has trailing garbage past the checksum");
  }
  PayloadHashes h;
  h.trailer = fnv1a64_words(bytes.data() + sizeof kSegMagic, kHeaderBytes);
  h.chain = chain;
  fold_payload(bytes.data() + r.pos, padded / sizeof(std::int64_t), h);
  r.pos += padded;
  if (static_cast<std::uint64_t>(r.next("checksum")) != h.trailer) {
    throw validation_error("durable store: " + path +
                           " fails its FNV-1a checksum (corrupt segment)");
  }
  const auto* payload =
      reinterpret_cast<const unsigned char*>(bytes.data()) + kSegmentHeadBytes;
  VarintReader in{payload, payload + payload_bytes, path};
  seg.records.resize(2 * static_cast<std::size_t>(seg.header.num_edges));
  index_t p = 0;
  index_t q = 0;
  for (std::size_t i = 0; i < seg.records.size(); i += 2) {
    p = in.next_id(p);
    q = in.next_id(q);
    seg.records[i] = p;
    seg.records[i + 1] = q;
  }
  if (in.at != in.end) in.fail("has bytes past its last record");
  for (const unsigned char* pad = in.end; pad != payload + padded; ++pad) {
    if (*pad != 0) in.fail("has a non-zero pad byte");
  }
  seg.payload_hash = h.payload;
  seg.chain_hash = h.chain;
}

} // namespace

SegmentData decode_segment(const std::string& bytes, const std::string& path,
                           std::uint64_t chain) {
  SegmentData seg;
  decode_into(bytes, path, chain, seg);
  return seg;
}

SegmentData read_segment(FileOps& ops, const std::string& path,
                         std::uint64_t chain) {
  auto bytes = ops.read_file(path);
  if (!bytes) throw io_error("durable store: missing segment " + path);
  return decode_segment(*bytes, path, chain);
}

void require_committed_at(const SegmentData& seg, const std::string& path,
                          std::uint64_t spec_hash, index_t shard,
                          count_t seg_index, count_t first_edge) {
  if (seg.header.spec_hash != spec_hash || seg.header.shard != shard ||
      seg.header.seg_index != seg_index ||
      seg.header.first_edge != first_edge) {
    throw validation_error("durable store: " + path +
                           " disagrees with the manifest's committed "
                           "range (corrupt store)");
  }
}

void for_each_committed_segment(
    const std::string& dir, std::uint64_t spec_hash, index_t shard,
    const ShardProgress& prog, const StoreReader& read,
    const std::function<void(const SegmentData&)>& visit) {
  std::uint64_t chain = kFnvBasis;
  count_t edges = 0;
  SegmentData seg;
  for (count_t g = 0; g < prog.segments; ++g) {
    static obs::Histogram& validate_hist =
        obs::histogram("io/segment_validate");
    obs::LatencyScope validate_latency(validate_hist);
    const std::string path = dir + "/" + segment_name(shard, g);
    const auto bytes = read(path);
    if (!bytes) throw io_error("durable store: missing segment " + path);
    decode_into(*bytes, path, chain, seg);
    require_committed_at(seg, path, spec_hash, shard, g, edges);
    visit(seg);
    chain = seg.chain_hash;
    edges += seg.header.num_edges;
  }
  if (edges != prog.edges || chain != prog.chain_hash) {
    throw validation_error(
        "durable store: shard " + std::to_string(shard) +
        " committed segments do not reproduce the manifest's cursor/"
        "chain hash (corrupt store)");
  }
}

void write_manifest(FileOps& ops, const std::string& dir,
                    const Manifest& man) {
  KRONLAB_TRACE_SPAN("io", "commit_manifest");
  std::string bytes(kManMagic, sizeof kManMagic);
  const std::int64_t head[5] = {
      kManifestVersion, static_cast<std::int64_t>(man.spec_hash),
      static_cast<std::int64_t>(man.shards.size()), man.segment_edges,
      man.total_edges()};
  append_words(bytes, head, 5);
  for (const auto& s : man.shards) {
    const std::int64_t rec[3] = {s.segments, s.edges,
                                 static_cast<std::int64_t>(s.chain_hash)};
    append_words(bytes, rec, 3);
  }
  const std::uint64_t hash = fnv1a64_words(bytes.data() + sizeof kManMagic,
                                     bytes.size() - sizeof kManMagic);
  const auto trailer = static_cast<std::int64_t>(hash);
  append_words(bytes, &trailer, 1);
  write_sealed(ops, dir, kManifestName, bytes.data(), bytes.size());
}

std::optional<Manifest> read_manifest(FileOps& ops,
                                      const std::string& dir) {
  const std::string path = dir + "/" + kManifestName;
  const auto bytes = ops.read_file(path);
  if (!bytes) return std::nullopt;
  if (bytes->size() < sizeof kManMagic ||
      std::memcmp(bytes->data(), kManMagic, sizeof kManMagic) != 0) {
    throw validation_error("durable store: " + path +
                           " is not a KRNLMAN1 manifest (bad magic)");
  }
  // The manifest is only ever published whole (atomic rename), so any
  // checksum failure here means corruption, not a crash window.
  if (bytes->size() < sizeof kManMagic + sizeof(std::int64_t)) {
    throw validation_error("durable store: " + path + " is truncated");
  }
  const std::uint64_t computed =
      fnv1a64_words(bytes->data() + sizeof kManMagic,
              bytes->size() - sizeof kManMagic - sizeof(std::int64_t));
  std::int64_t stored = 0;
  std::memcpy(&stored, bytes->data() + bytes->size() - sizeof stored,
              sizeof stored);
  if (static_cast<std::uint64_t>(stored) != computed) {
    throw validation_error("durable store: " + path +
                           " fails its FNV-1a checksum (corrupt manifest)");
  }
  WordReader r{*bytes, sizeof kManMagic, path};
  const std::int64_t version = r.next("version");
  if (version != kManifestVersion) {
    throw validation_error("durable store: " + path +
                           " has unsupported manifest version " +
                           std::to_string(version));
  }
  Manifest man;
  man.spec_hash = static_cast<std::uint64_t>(r.next("spec hash"));
  const std::int64_t shards = r.next("shard count");
  man.segment_edges = r.next("segment edges");
  const count_t total = r.next("total edges");
  if (shards < 0 || shards > (std::int64_t{1} << 20) ||
      man.segment_edges <= 0 || man.segment_edges > kMaxPlausible) {
    throw validation_error("durable store: " + path +
                           " has implausible shape (corrupt)");
  }
  man.shards.resize(static_cast<std::size_t>(shards));
  for (auto& s : man.shards) {
    s.segments = r.next("shard segments");
    s.edges = r.next("shard edges");
    s.chain_hash = static_cast<std::uint64_t>(r.next("shard chain hash"));
    if (s.segments < 0 || s.edges < 0 || s.segments > kMaxPlausible ||
        s.edges > kMaxPlausible) {
      throw validation_error("durable store: " + path +
                             " has implausible shard progress (corrupt)");
    }
  }
  if (man.total_edges() != total) {
    throw validation_error("durable store: " + path +
                           " total-edges field disagrees with its shards");
  }
  return man;
}

ScanResult scan_store(FileOps& ops, const std::string& dir,
                      const Manifest& expected) {
  KRONLAB_TRACE_SPAN("io", "scan_store");
  ScanResult res;
  const auto present = read_manifest(ops, dir);
  if (present) {
    if (present->spec_hash != expected.spec_hash) {
      throw validation_error(
          "durable store: " + dir +
          " was generated from a different spec (manifest spec hash "
          "mismatch) — refusing to resume into it");
    }
    if (present->shards.size() != expected.shards.size() ||
        present->segment_edges != expected.segment_edges) {
      throw validation_error(
          "durable store: " + dir +
          " has a different shard/segment layout (shards=" +
          std::to_string(present->shards.size()) + " segment_edges=" +
          std::to_string(present->segment_edges) +
          ") — resume must reuse the original layout");
    }
    res.manifest = *present;
  } else {
    res.manifest = expected; // fresh store
  }

  // Index every file in the directory up front.
  std::vector<std::string> names;
  {
    auto all = ops.list_dir(dir);
    names.assign(all.begin(), all.end());
  }
  for (const auto& name : names) {
    if (name.size() >= 4 && name.rfind(".tmp") == name.size() - 4) {
      obs::log(obs::LogLevel::warn, "io", "scan_discard_tmp")
          .field("dir", dir)
          .field("file", name);
      ops.remove(dir + "/" + name); // crash leftovers, never meaningful
      ++res.discarded_files;
    }
  }

  bool adopted_any = false;
  for (index_t s = 0;
       s < static_cast<index_t>(res.manifest.shards.size()); ++s) {
    auto& prog = res.manifest.shards[static_cast<std::size_t>(s)];
    // 1. Every committed segment must verify and chain-hash to the
    //    manifest record.
    for_each_committed_segment(
        dir, expected.spec_hash, s, prog,
        [&](const std::string& path) { return ops.read_file(path); },
        [&](const SegmentData&) { ++res.verified_segments; });
    // 2. Adopt the crash window: the exact next sealed segment, if whole.
    for (;;) {
      const std::string next_name = segment_name(s, prog.segments);
      if (std::find(names.begin(), names.end(), next_name) ==
          names.end()) {
        break;
      }
      const std::string path = dir + "/" + next_name;
      bool ok = true;
      SegmentData seg;
      try {
        seg = read_segment(ops, path, prog.chain_hash);
      } catch (const error&) {
        ok = false; // torn or corrupt — regenerate it instead
      }
      ok = ok && seg.header.spec_hash == expected.spec_hash &&
           seg.header.shard == s &&
           seg.header.seg_index == prog.segments &&
           seg.header.first_edge == prog.edges;
      if (!ok) {
        // The crash window's next segment is torn, corrupt, or from a
        // different spec: drop it and let generation redo the range.
        obs::log(obs::LogLevel::warn, "io", "scan_reject_next_segment")
            .field("path", path)
            .field("shard", static_cast<std::int64_t>(s));
        ops.remove(path);
        ++res.discarded_files;
        break;
      }
      prog.chain_hash = seg.chain_hash;
      prog.edges += seg.header.num_edges;
      prog.segments += 1;
      ++res.adopted_segments;
      adopted_any = true;
      trace::instant("io", "resume_adopt_segment");
    }
    // 3. Anything of this shard past the (possibly extended) committed
    //    range is stale — delete so a later seal can never collide with
    //    a file from another life.
    for (const auto& name : names) {
      if (name.rfind(shard_prefix(s), 0) != 0) continue;
      if (name.size() < 8 || name.rfind(".krnlseg") != name.size() - 8) {
        continue;
      }
      // shard-XXXX-seg-NNNNNN.krnlseg → NNNNNN
      const auto seg_at = name.find("-seg-");
      if (seg_at == std::string::npos) continue;
      const count_t idx = std::strtoll(name.c_str() + seg_at + 5, nullptr, 10);
      if (idx >= prog.segments) {
        obs::log(obs::LogLevel::warn, "io", "scan_discard_stale_segment")
            .field("dir", dir)
            .field("file", name)
            .field("committed", static_cast<std::int64_t>(prog.segments));
        ops.remove(dir + "/" + name);
        ++res.discarded_files;
      }
    }
  }
  if (adopted_any) {
    write_manifest(ops, dir, res.manifest); // re-commit the adopted state
  }
  return res;
}

} // namespace kronlab::io
