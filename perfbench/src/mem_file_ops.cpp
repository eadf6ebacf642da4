// perfbench/src/mem_file_ops.cpp — see mem_file_ops.hpp.

#include "mem_file_ops.hpp"

#include <chrono>

#include "kronlab/common/error.hpp"

namespace perfbench {
namespace {

using kronlab::io_error;
using kronlab::io::WritableFile;

std::string parent_of(const std::string& path) {
  const auto slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

bool is_under(const std::string& path, const std::string& dir) {
  return path.size() > dir.size() && path.compare(0, dir.size(), dir) == 0 &&
         path[dir.size()] == '/';
}

class MemWritableFile final : public WritableFile {
public:
  explicit MemWritableFile(std::shared_ptr<std::string> data)
      : data_(std::move(data)) {}

  std::size_t write_some(const void* data, std::size_t n) override {
    data_->append(static_cast<const char*>(data), n);
    return n;
  }
  void sync() override {}
  void close() override {}

private:
  std::shared_ptr<std::string> data_;
};

class CountingWritableFile final : public WritableFile {
public:
  CountingWritableFile(std::unique_ptr<WritableFile> inner,
                       FileOpCounts& counts)
      : inner_(std::move(inner)), counts_(counts) {}

  std::size_t write_some(const void* data, std::size_t n) override {
    const std::size_t done = inner_->write_some(data, n);
    counts_.bytes_written += done;
    return done;
  }
  void sync() override {
    const auto t0 = std::chrono::steady_clock::now();
    inner_->sync();
    counts_.sync_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    ++counts_.syncs;
  }
  void close() override { inner_->close(); }

private:
  std::unique_ptr<WritableFile> inner_;
  FileOpCounts& counts_;
};

} // namespace

std::unique_ptr<WritableFile> MemFileOps::create(const std::string& path) {
  if (dirs_.count(parent_of(path)) == 0) {
    throw io_error("cannot create " + path + ": no such directory");
  }
  auto data = std::make_shared<std::string>();
  files_[path] = data;
  return std::make_unique<MemWritableFile>(std::move(data));
}

void MemFileOps::publish(const std::string& tmp_path,
                         const std::string& final_path) {
  const auto it = files_.find(tmp_path);
  if (it == files_.end()) {
    throw io_error("cannot rename " + tmp_path + ": no such file");
  }
  auto data = std::move(it->second);
  files_.erase(it);
  files_[final_path] = std::move(data);
}

bool MemFileOps::remove(const std::string& path) {
  return files_.erase(path) > 0;
}

std::vector<std::string> MemFileOps::list_dir(const std::string& dir) {
  if (dirs_.count(dir) == 0) throw io_error("cannot list " + dir);
  std::vector<std::string> names;
  for (auto it = files_.lower_bound(dir + "/");
       it != files_.end() && is_under(it->first, dir); ++it) {
    if (parent_of(it->first) == dir) {
      names.push_back(it->first.substr(dir.size() + 1));
    }
  }
  return names; // std::map order: already sorted
}

std::optional<std::string> MemFileOps::read_file(const std::string& path) {
  const auto it = files_.find(path);
  if (it == files_.end()) return std::nullopt;
  return *it->second;
}

void MemFileOps::make_dir(const std::string& dir) {
  for (std::string d = dir; !d.empty(); d = parent_of(d)) dirs_.insert(d);
}

void MemFileOps::remove_tree(const std::string& dir) {
  const auto lo = files_.lower_bound(dir + "/");
  auto hi = lo;
  while (hi != files_.end() && is_under(hi->first, dir)) ++hi;
  files_.erase(lo, hi);
  dirs_.erase(dir);
}

std::unique_ptr<WritableFile> CountingFileOps::create(
    const std::string& path) {
  return std::make_unique<CountingWritableFile>(inner_.create(path),
                                                counts_);
}

void CountingFileOps::publish(const std::string& tmp_path,
                              const std::string& final_path) {
  ++counts_.publishes;
  inner_.publish(tmp_path, final_path);
}

bool CountingFileOps::remove(const std::string& path) {
  return inner_.remove(path);
}

std::vector<std::string> CountingFileOps::list_dir(const std::string& dir) {
  return inner_.list_dir(dir);
}

std::optional<std::string> CountingFileOps::read_file(
    const std::string& path) {
  return inner_.read_file(path);
}

void CountingFileOps::make_dir(const std::string& dir) {
  inner_.make_dir(dir);
}

} // namespace perfbench
