// kronlab/io/file_ops.hpp
//
// Filesystem primitives behind the durable output pipeline — and the
// fault-injection shim that proves it durable.
//
// Everything the durable layer (io/durable.hpp) does to disk goes through
// a FileOps instance: create-for-write, fsync, atomic publish (rename),
// remove, list, read.  Implementations need not be thread-safe: the
// durable layer runs a store's shards concurrently but makes its FileOps
// calls (and those on the files they create) one at a time, under one
// store lock.  The one exception is reading: read_file and list_dir may
// be called concurrently while nothing writes the store, which is how
// distributed ranks load their shards at once (dist::load_shard).
// RealFileOps is stateless, and FaultyFileOps passes reads straight
// through.  Production uses RealFileOps (stdio + POSIX fsync);
// tests substitute FaultyFileOps, which wraps the real one and injects
// the filesystem's unkind moments deterministically per seed:
//
//   * short writes    — every write call may return having written fewer
//                       bytes than asked (correct writers loop);
//   * failed fsync / rename / write — the call throws io_error, exactly
//                       once per configured hit, and the caller must
//                       leave the store consistent;
//   * kill points     — the `kill_hits`-th time a named operation point
//                       is reached, the shim simulates the process dying
//                       at that instruction boundary: it reverts every
//                       open file to its last-fsynced length (the page
//                       cache is gone), optionally keeps a torn prefix of
//                       the in-flight write (some pages made it out), and
//                       throws `killed_at` — a type that deliberately
//                       does NOT derive from std::exception, so no
//                       cleanup path can accidentally absorb the "crash".
//
// Fault points are named "<tag>:<op>:<phase>": tag is the file class the
// durable layer assigns ("segment", "manifest"), op is write|sync|rename,
// phase is before|after (or "torn" for write).  The same idiom as the
// dist FaultPlan's Comm::fault_point, pushed down to the filesystem.

#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "kronlab/common/error.hpp"

namespace kronlab::io {

/// Simulated process death at a named fault point.  Intentionally not a
/// std::exception: a crash must not be swallowed by generic catch blocks
/// in the code under test — only the test harness catches it by name.
struct killed_at {
  std::string point; ///< the fault point that fired
};

/// A file open for (over)writing.  Writers must treat write_some like
/// POSIX write(2): it may consume fewer bytes than offered.
class WritableFile {
public:
  virtual ~WritableFile() = default;

  /// Write up to `n` bytes; returns how many were consumed (>= 1 unless
  /// n == 0).  Throws io_error on a failed-write fault or a real error.
  virtual std::size_t write_some(const void* data, std::size_t n) = 0;

  /// Flush user-space buffers and fsync to stable storage.  Throws
  /// io_error on failure — after which none of the unsynced bytes may be
  /// assumed durable.
  virtual void sync() = 0;

  /// Flush and close.  Idempotent; the destructor closes without
  /// throwing.  Close does NOT imply durability — only sync() does.
  virtual void close() = 0;
};

/// Write all of `data`, looping over short writes.
void write_all(WritableFile& f, const void* data, std::size_t n);

class FileOps {
public:
  virtual ~FileOps() = default;

  /// Create (truncate) `path` for writing.
  [[nodiscard]] virtual std::unique_ptr<WritableFile> create(
      const std::string& path) = 0;

  /// Atomically replace `final_path` with `tmp_path` (rename(2)).  On
  /// return the new content is visible under `final_path`; durability of
  /// the rename itself is modeled as immediate.
  virtual void publish(const std::string& tmp_path,
                       const std::string& final_path) = 0;

  /// Remove `path`; missing files are not an error (returns false).
  virtual bool remove(const std::string& path) = 0;

  /// Names (not paths) of directory entries, sorted.  Missing directory
  /// throws io_error.
  [[nodiscard]] virtual std::vector<std::string> list_dir(
      const std::string& dir) = 0;

  /// Whole file as bytes, or nullopt when it does not exist.  Throws
  /// io_error on read failure.
  [[nodiscard]] virtual std::optional<std::string> read_file(
      const std::string& path) = 0;

  /// Create `dir` (and parents).  Existing directory is fine.
  virtual void make_dir(const std::string& dir) = 0;
};

/// The production FileOps (stdio writes, POSIX fsync, ::rename).
/// Stateless; one shared instance.
FileOps& real_file_ops();

/// Deterministic filesystem fault plan (the dist FaultPlan idiom).  Point
/// names are "<tag>:<op>:<phase>" as documented above, e.g.
/// "segment:rename:after", "manifest:sync:before", "segment:write:torn".
struct FsFaultPlan {
  std::uint64_t seed = 0;

  /// > 0: cap every write_some to this many bytes — forces writers to
  /// loop.  Purely a robustness stressor; no data is lost.
  std::size_t short_write_cap = 0;

  /// Kill (simulated crash) when `kill_point` is hit for the
  /// `kill_hits`-th time.  Empty = never.
  std::string kill_point;
  std::uint64_t kill_hits = 1;

  /// Fail (io_error, no crash) when `fail_point` is hit for the
  /// `fail_hits`-th time.  Phase is ignored for failures: the op itself
  /// fails.  Empty = never.
  std::string fail_point;
  std::uint64_t fail_hits = 1;
};

/// FileOps decorator injecting the plan above.  Classifies files by path:
/// anything whose basename starts with "MANIFEST" is tagged "manifest",
/// everything else "segment".  Single-threaded by contract, reads aside
/// (see the file comment): the durable layer calls it one call at a time
/// under its store lock, even while shards generate concurrently, so a
/// kill still lands at one instruction boundary and nothing touches the
/// store after it.  Which
/// shard reaches the n-th hit depends on scheduling; the resumed store
/// does not.
class FaultyFileOps final : public FileOps {
public:
  FaultyFileOps(FileOps& inner, FsFaultPlan plan);
  ~FaultyFileOps() override;

  [[nodiscard]] std::unique_ptr<WritableFile> create(
      const std::string& path) override;
  void publish(const std::string& tmp_path,
               const std::string& final_path) override;
  bool remove(const std::string& path) override;
  [[nodiscard]] std::vector<std::string> list_dir(
      const std::string& dir) override;
  [[nodiscard]] std::optional<std::string> read_file(
      const std::string& path) override;
  void make_dir(const std::string& dir) override;

  /// Fault points hit so far, in order (test diagnostics).
  [[nodiscard]] const std::vector<std::string>& points_hit() const {
    return points_hit_;
  }

private:
  friend class FaultyWritableFile;
  struct OpenFile; ///< tracked durability state of one live file

  /// Record a hit on `point`; throws killed_at / io_error per the plan.
  /// `torn_keep` is the byte count of the in-flight write to preserve
  /// when a ":torn" kill fires here (write points only).
  void hit(const std::string& point);

  /// Apply crash semantics: truncate every open file back to its
  /// last-fsynced length, then throw killed_at{point}.
  [[noreturn]] void die(const std::string& point);

  [[nodiscard]] static std::string tag_of(const std::string& path);

  FileOps& inner_;
  FsFaultPlan plan_;
  std::uint64_t kill_seen_ = 0;
  std::uint64_t fail_seen_ = 0;
  bool dead_ = false; ///< after a kill the shim refuses further work
  /// Every file ever created; entries outlive their handles so a kill
  /// after close can still revert unsynced bytes.
  std::vector<std::unique_ptr<OpenFile>> open_;
  std::vector<std::string> points_hit_;
};

} // namespace kronlab::io
