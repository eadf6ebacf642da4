// perfbench/src/mem_file_ops.hpp
//
// Storage for the generate workload.
//
// MemFileOps is a RAM-backed io::FileOps: the store's directory and files
// live in this process's memory, so a generate pass costs the same on any
// machine whatever disk the checkout sits on, and the benchmark writes
// nothing outside its own process.  fsync has nothing to wait for here;
// its cost is counted, not timed (see CountingFileOps).
//
// CountingFileOps decorates any FileOps (MemFileOps, or io::real_file_ops()
// when the store is given a real directory) and counts exactly what the
// durable layer asks of the filesystem: bytes written, fsyncs and their
// time, atomic publishes.
//
// Both are single-threaded, as generate_durable and verify_store are.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "kronlab/io/file_ops.hpp"

namespace perfbench {

class MemFileOps final : public kronlab::io::FileOps {
public:
  [[nodiscard]] std::unique_ptr<kronlab::io::WritableFile> create(
      const std::string& path) override;
  void publish(const std::string& tmp_path,
               const std::string& final_path) override;
  bool remove(const std::string& path) override;
  [[nodiscard]] std::vector<std::string> list_dir(
      const std::string& dir) override;
  [[nodiscard]] std::optional<std::string> read_file(
      const std::string& path) override;
  void make_dir(const std::string& dir) override;

  /// Drop `dir` and every file under it.
  void remove_tree(const std::string& dir);

private:
  std::set<std::string> dirs_;
  std::map<std::string, std::shared_ptr<std::string>> files_;
};

struct FileOpCounts {
  std::uint64_t syncs = 0;
  std::uint64_t publishes = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t sync_ns = 0; ///< time spent in sync()
};

class CountingFileOps final : public kronlab::io::FileOps {
public:
  explicit CountingFileOps(kronlab::io::FileOps& inner) : inner_(inner) {}

  [[nodiscard]] std::unique_ptr<kronlab::io::WritableFile> create(
      const std::string& path) override;
  void publish(const std::string& tmp_path,
               const std::string& final_path) override;
  bool remove(const std::string& path) override;
  [[nodiscard]] std::vector<std::string> list_dir(
      const std::string& dir) override;
  [[nodiscard]] std::optional<std::string> read_file(
      const std::string& path) override;
  void make_dir(const std::string& dir) override;

  [[nodiscard]] const FileOpCounts& counts() const { return counts_; }

private:
  kronlab::io::FileOps& inner_;
  FileOpCounts counts_;
};

} // namespace perfbench
