#include "kronlab/io/stream_gen.hpp"

#include <exception>
#include <limits>
#include <utility>

#include "kronlab/common/sync.hpp"
#include "kronlab/grb/binary_io.hpp" // fnv1a64
#include "kronlab/obs/log.hpp"
#include "kronlab/obs/stats.hpp"
#include "kronlab/obs/trace.hpp"
#include "kronlab/parallel/parallel_for.hpp"

namespace kronlab::io {

using grb::fnv1a64;

namespace {

void hash_factor(std::uint64_t& h, const graph::Adjacency& f) {
  const std::int64_t shape[2] = {f.nrows(), f.ncols()};
  h = fnv1a64(shape, sizeof shape, h);
  h = fnv1a64(f.row_ptr().data(),
              f.row_ptr().size() * sizeof(f.row_ptr()[0]), h);
  h = fnv1a64(f.col_idx().data(),
              f.col_idx().size() * sizeof(f.col_idx()[0]), h);
}

/// Thrown at a shard's next lock acquisition once a sibling has failed;
/// the sibling's failure is the one the caller sees.
struct sibling_failed {};

/// The store as the concurrent shard workers share it.  Every FileOps
/// call and every touch of the manifest happen under one lock (FileOps
/// implementations are single-threaded by contract); each shard streams,
/// validates, encodes and hashes outside it.  The first failure — an
/// io_error, a validation_error or a simulated kill alike — is recorded
/// under the lock, so no FileOps call ever follows it.
class SharedStore {
public:
  SharedStore(FileOps& ops, Manifest man)
      : ops_(ops), man_(std::move(man)) {}

  /// fn(ops, manifest) under the lock; its failure becomes the first
  /// failure.  Throws sibling_failed instead once one is recorded.
  template <typename Fn>
  decltype(auto) locked(Fn&& fn) {
    MutexLock lock(mu_);
    if (failure_) throw sibling_failed{};
    try {
      return fn(ops_, man_);
    } catch (...) {
      failure_ = std::current_exception();
      throw;
    }
  }

  /// body(s) for every shard, concurrently on global_pool(); after the
  /// join, rethrows the first failure.
  template <typename Body>
  void for_each_shard(index_t shards, Body&& body) {
    parallel_for_dynamic(
        0, shards,
        [&](index_t s) {
          try {
            locked([](FileOps&, Manifest&) {}); // stop if a sibling failed
            body(s);
          } catch (const sibling_failed&) {
            // Stopped: a sibling's failure is already recorded.
          } catch (...) {
            MutexLock lock(mu_);
            if (!failure_) failure_ = std::current_exception();
          }
        },
        global_pool(), 1);
    MutexLock lock(mu_);
    if (failure_) std::rethrow_exception(failure_);
  }

  /// The committed state, once the shards have joined.
  [[nodiscard]] Manifest take_manifest() {
    MutexLock lock(mu_);
    return std::move(man_);
  }

private:
  FileOps& ops_;
  Mutex mu_;
  Manifest man_ GUARDED_BY(mu_);
  std::exception_ptr failure_ GUARDED_BY(mu_);
};

/// One shard's durable writer: encodes records into a reused segment
/// buffer, seals one every `segment_edges` records, and commits it and
/// then the manifest under the store lock — the only points at which
/// the shard's cursor advances.
class ShardWriter {
public:
  ShardWriter(SharedStore& store, const std::string& dir, index_t shard,
              std::uint64_t spec, count_t segment_edges, ShardProgress from)
      : store_(store), dir_(dir), shard_(shard), spec_(spec),
        segment_edges_(segment_edges), prog_(from), buf_(segment_edges) {}

  void push(index_t p, index_t q) {
    buf_.push(p, q);
    if (buf_.num_edges() == segment_edges_) seal();
  }

  /// Seal whatever remains (the shard's final, possibly short, segment).
  void finish() {
    if (buf_.num_edges() > 0) seal();
  }

  [[nodiscard]] count_t segments_sealed() const { return sealed_; }

private:
  void seal() {
    SegmentHeader h;
    h.spec_hash = spec_;
    h.shard = shard_;
    h.seg_index = prog_.segments;
    h.first_edge = prog_.edges;
    h.num_edges = buf_.num_edges();
    ShardProgress next = prog_;
    const std::uint64_t payload_hash = buf_.seal(h, next.chain_hash);
    next.segments += 1;
    next.edges += h.num_edges;
    const count_t committed = store_.locked([&](FileOps& ops, Manifest& man) {
      publish_segment(ops, dir_, buf_);
      man.shards[static_cast<std::size_t>(shard_)] = next;
      write_manifest(ops, dir_, man);
      return man.total_edges();
    });
    prog_ = next;
    buf_.clear();
    ++sealed_;
    obs::log(obs::LogLevel::debug, "io", "segment_sealed")
        .field("shard", static_cast<std::int64_t>(shard_))
        .field("seg", static_cast<std::int64_t>(h.seg_index))
        .field("edges", static_cast<std::int64_t>(h.num_edges))
        .field("payload_hash", payload_hash);
    trace::counter("io", "edges_committed", static_cast<double>(committed));
  }

  SharedStore& store_;
  const std::string& dir_;
  index_t shard_;
  std::uint64_t spec_;
  count_t segment_edges_;
  ShardProgress prog_; ///< this shard's committed state
  SegmentBuffer buf_;
  count_t sealed_ = 0;
};

} // namespace

std::uint64_t spec_hash(const kron::BipartiteKronecker& kp) {
  std::uint64_t h = kFnvBasis;
  hash_factor(h, kp.left());
  hash_factor(h, kp.right());
  const std::int64_t mode = static_cast<std::int64_t>(kp.mode());
  h = fnv1a64(&mode, sizeof mode, h);
  return h;
}

// ---------------------------------------------------------------------------
// StreamValidator

StreamValidator::StreamValidator(const kron::GroundTruthOracle& oracle,
                                 std::uint64_t seed, std::uint64_t rate)
    : oracle_(&oracle), seed_(seed) {
  KRONLAB_REQUIRE(rate >= 1, "sample rate must be >= 1");
  threshold_ = std::numeric_limits<std::uint64_t>::max() / rate;
}

bool StreamValidator::sampled(std::uint64_t x) const {
  // splitmix64's finalizer: every output bit depends on every input bit,
  // so comparing against max/rate keeps 1 in `rate` (all of them at
  // rate 1) with no division.
  x ^= seed_;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x <= threshold_;
}

void StreamValidator::begin_shard(bool first_row_partial) {
  row_ = -1;
  row_edges_ = 0;
  row_partial_ = false;
  next_row_partial_ = first_row_partial;
}

void StreamValidator::close_row() {
  if (row_ < 0 || row_partial_ ||
      !sampled(static_cast<std::uint64_t>(row_))) {
    return;
  }
  const count_t want = oracle_->vertex(row_).degree;
  if (row_edges_ != want) {
    throw validation_error(
        "stream validation: row " + std::to_string(row_) + " emitted " +
        std::to_string(row_edges_) + " edges but the ground-truth degree is " +
        std::to_string(want) + " — generated stream has drifted");
  }
  ++rows_checked_;
}

void StreamValidator::observe(index_t p, index_t q) {
  if (p != row_) {
    close_row();
    if (row_ >= 0 && p < row_) {
      throw validation_error(
          "stream validation: rows out of order (" + std::to_string(p) +
          " after " + std::to_string(row_) + ") — stream is not row-major");
    }
    row_ = p;
    row_edges_ = 0;
    row_partial_ = next_row_partial_;
    next_row_partial_ = false;
  }
  ++row_edges_;
  const auto key = static_cast<std::uint64_t>(p) * 0x9e3779b97f4a7c15ULL ^
                   static_cast<std::uint64_t>(q);
  if (sampled(key)) {
    if (!oracle_->try_edge(p, q)) {
      throw validation_error(
          "stream validation: (" + std::to_string(p) + ", " +
          std::to_string(q) +
          ") is not an edge of the product — generated stream has drifted");
    }
    ++edges_checked_;
  }
}

void StreamValidator::end_shard() {
  close_row();
  row_ = -1;
  row_edges_ = 0;
}

// ---------------------------------------------------------------------------
// generate_durable

StreamGenReport generate_durable(FileOps& ops,
                                 const kron::BipartiteKronecker& kp,
                                 const StreamGenOptions& opt) {
  KRONLAB_TRACE_SPAN("io", "generate_durable");
  KRONLAB_KERNEL("io/generate_durable");
  KRONLAB_REQUIRE(!opt.dir.empty(), "output directory required");
  KRONLAB_REQUIRE(opt.shards >= 1, "need at least one shard");
  KRONLAB_REQUIRE(opt.segment_edges >= 1, "segment_edges must be >= 1");

  ops.make_dir(opt.dir);
  const std::uint64_t spec = spec_hash(kp);
  Manifest expected;
  expected.spec_hash = spec;
  expected.segment_edges = opt.segment_edges;
  expected.shards.resize(static_cast<std::size_t>(opt.shards));

  StreamGenReport rep;
  if (opt.resume) {
    const ScanResult scan = scan_store(ops, opt.dir, expected);
    rep.manifest = scan.manifest;
    rep.adopted_segments = scan.adopted_segments;
    rep.discarded_files = scan.discarded_files;
    rep.verified_segments = scan.verified_segments;
  } else {
    if (read_manifest(ops, opt.dir)) {
      throw io_error("durable store: " + opt.dir +
                     " already holds a manifest — pass --resume to "
                     "continue it, or generate into a fresh directory");
    }
    // Leftovers from a run that died before its first commit carry no
    // state worth adopting in fresh mode; clear them.
    for (const auto& name : ops.list_dir(opt.dir)) {
      if (ops.remove(opt.dir + "/" + name)) ++rep.discarded_files;
    }
    rep.manifest = expected;
  }

  const kron::PartitionedStream part(kp, opt.shards);
  const kron::GroundTruthOracle oracle(kp);
  const Manifest start = rep.manifest;
  for (const auto& prog : start.shards) rep.edges_resumed += prog.edges;

  std::vector<StreamGenReport> per_shard(
      static_cast<std::size_t>(opt.shards));
  SharedStore store(ops, std::move(rep.manifest));
  store.for_each_shard(opt.shards, [&](index_t s) {
    KRONLAB_TRACE_SPAN("io", "generate_shard");
    const ShardProgress& from = start.shards[static_cast<std::size_t>(s)];
    const count_t total = part.entries_of(s);
    KRONLAB_DBG_ASSERT(from.edges <= total, "cursor past the shard's stream");
    if (from.edges == total) return; // shard already complete
    ShardWriter writer(store, opt.dir, s, spec, opt.segment_edges, from);
    StreamValidator validator(oracle, opt.sample_seed,
                              opt.validate ? opt.sample_rate : 1);
    if (opt.validate) {
      validator.begin_shard(/*first_row_partial=*/from.edges > 0);
    }
    part.for_each_entry_from(s, from.edges, [&](index_t p, index_t q) {
      if (opt.validate) validator.observe(p, q);
      writer.push(p, q);
    });
    if (opt.validate) validator.end_shard();
    writer.finish();
    auto& mine = per_shard[static_cast<std::size_t>(s)];
    mine.edges_written = total - from.edges;
    mine.segments_sealed = writer.segments_sealed();
    mine.rows_checked = validator.rows_checked();
    mine.edges_checked = validator.edges_checked();
  });
  rep.manifest = store.take_manifest();
  for (const auto& mine : per_shard) {
    rep.edges_written += mine.edges_written;
    rep.segments_sealed += mine.segments_sealed;
    rep.rows_checked += mine.rows_checked;
    rep.edges_checked += mine.edges_checked;
  }
  trace::counter("io", "edges_committed",
                 static_cast<double>(rep.manifest.total_edges()));
  return rep;
}

// ---------------------------------------------------------------------------
// verify_store

VerifyReport verify_store(FileOps& ops,
                          const kron::BipartiteKronecker& kp,
                          const StreamGenOptions& opt) {
  KRONLAB_TRACE_SPAN("io", "verify_store");
  KRONLAB_KERNEL("io/verify_store");
  const auto man = read_manifest(ops, opt.dir);
  if (!man) {
    throw io_error("durable store: " + opt.dir + " has no manifest");
  }
  const std::uint64_t spec = spec_hash(kp);
  if (man->spec_hash != spec) {
    throw validation_error("durable store: " + opt.dir +
                           " was generated from a different spec "
                           "(manifest spec hash mismatch)");
  }
  const auto shards = static_cast<index_t>(man->shards.size());
  const kron::PartitionedStream part(kp, shards);
  count_t committed = 0;
  for (index_t s = 0; s < shards; ++s) {
    const auto& prog = man->shards[static_cast<std::size_t>(s)];
    if (prog.edges != part.entries_of(s)) {
      throw validation_error(
          "durable store: shard " + std::to_string(s) + " holds " +
          std::to_string(prog.edges) + " of " +
          std::to_string(part.entries_of(s)) +
          " edges — store is incomplete, not verifiable as final output");
    }
    committed += prog.segments;
  }
  // A final store holds exactly its committed segments: a sealed one
  // past the committed range is a crash leftover resume would adopt.
  count_t files = 0;
  for (const auto& name : ops.list_dir(opt.dir)) {
    files += name.size() >= 8 && name.rfind(".krnlseg") == name.size() - 8;
  }
  if (files != committed) {
    throw validation_error(
        "durable store: " + opt.dir + " holds " + std::to_string(files) +
        " segment files but its manifest commits " +
        std::to_string(committed) + " — not verifiable as final output");
  }

  const kron::GroundTruthOracle oracle(kp);
  std::vector<VerifyReport> per_shard(static_cast<std::size_t>(shards));
  SharedStore store(ops, Manifest{}); // verify never writes a manifest
  store.for_each_shard(shards, [&](index_t s) {
    const auto& prog = man->shards[static_cast<std::size_t>(s)];
    StreamValidator validator(oracle, opt.sample_seed, opt.sample_rate);
    validator.begin_shard(/*first_row_partial=*/false);
    std::uint64_t chain = kFnvBasis;
    count_t edges = 0;
    for (count_t g = 0; g < prog.segments; ++g) {
      static obs::Histogram& validate_hist =
          obs::histogram("io/segment_validate");
      obs::LatencyScope validate_latency(validate_hist);
      const std::string path = opt.dir + "/" + segment_name(s, g);
      auto bytes = store.locked(
          [&](FileOps& fs, Manifest&) { return fs.read_file(path); });
      if (!bytes) throw io_error("durable store: missing segment " + path);
      const SegmentData seg = decode_segment(std::move(*bytes), path, chain);
      require_committed_at(seg, path, spec, s, g, edges);
      seg.for_each_edge(
          [&](index_t p, index_t q) { validator.observe(p, q); });
      chain = seg.chain_hash;
      edges += seg.header.num_edges;
    }
    validator.end_shard();
    if (edges != prog.edges || chain != prog.chain_hash) {
      throw validation_error(
          "durable store: shard " + std::to_string(s) +
          " committed segments do not reproduce the manifest's cursor/"
          "chain hash (corrupt store)");
    }
    auto& mine = per_shard[static_cast<std::size_t>(s)];
    mine.segments = prog.segments;
    mine.edges = edges;
    mine.rows_checked = validator.rows_checked();
    mine.edges_checked = validator.edges_checked();
  });
  VerifyReport rep;
  for (const auto& mine : per_shard) {
    rep.segments += mine.segments;
    rep.edges += mine.edges;
    rep.rows_checked += mine.rows_checked;
    rep.edges_checked += mine.edges_checked;
  }
  return rep;
}

} // namespace kronlab::io
