#include "kronlab/io/file_ops.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

// POSIX fsync/truncate — the durability primitives stdio does not expose.
#include <unistd.h>

namespace kronlab::io {

namespace fs = std::filesystem;

void write_all(WritableFile& f, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  while (n > 0) {
    const std::size_t wrote = f.write_some(p, n);
    KRONLAB_DBG_ASSERT(wrote > 0 && wrote <= n,
                       "write_some must make progress");
    p += wrote;
    n -= wrote;
  }
}

namespace {

[[noreturn]] void throw_errno(const std::string& what,
                              const std::string& path) {
  throw io_error(what + " " + path + ": " + std::strerror(errno));
}

class RealWritableFile final : public WritableFile {
public:
  RealWritableFile(std::FILE* f, std::string path)
      : f_(f), path_(std::move(path)) {}

  ~RealWritableFile() override {
    if (f_ != nullptr) std::fclose(f_);
  }

  std::size_t write_some(const void* data, std::size_t n) override {
    if (n == 0) return 0;
    const std::size_t wrote = std::fwrite(data, 1, n, f_);
    if (wrote == 0) throw_errno("failed writing", path_);
    return wrote;
  }

  void sync() override {
    if (std::fflush(f_) != 0) throw_errno("failed flushing", path_);
    if (::fsync(fileno(f_)) != 0) throw_errno("failed fsync of", path_);
  }

  void close() override {
    if (f_ == nullptr) return;
    std::FILE* f = f_;
    f_ = nullptr;
    if (std::fclose(f) != 0) throw_errno("failed closing", path_);
  }

private:
  std::FILE* f_;
  std::string path_;
};

class RealFileOps final : public FileOps {
public:
  std::unique_ptr<WritableFile> create(const std::string& path) override {
    // kronlab-analyze: allow(durable-io) this IS the durable-io helper.
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) throw_errno("cannot create", path);
    return std::make_unique<RealWritableFile>(f, path);
  }

  void publish(const std::string& tmp_path,
               const std::string& final_path) override {
    // kronlab-analyze: allow(durable-io) the helper's atomic publish.
    if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
      throw_errno("cannot rename " + tmp_path + " ->", final_path);
    }
  }

  bool remove(const std::string& path) override {
    // kronlab-analyze: allow(durable-io) the helper's remove.
    if (std::remove(path.c_str()) == 0) return true;
    if (errno == ENOENT) return false;
    throw_errno("cannot remove", path);
  }

  std::vector<std::string> list_dir(const std::string& dir) override {
    std::error_code ec;
    std::vector<std::string> names;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      names.push_back(it->path().filename().string());
    }
    if (ec) {
      throw io_error("cannot list " + dir + ": " + ec.message());
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  std::optional<std::string> read_file(const std::string& path) override {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      if (!fs::exists(path)) return std::nullopt;
      throw io_error("cannot open " + path);
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad()) throw io_error("failed reading " + path);
    return std::move(buf).str();
  }

  void make_dir(const std::string& dir) override {
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) throw io_error("cannot create " + dir + ": " + ec.message());
  }
};

} // namespace

FileOps& real_file_ops() {
  static RealFileOps ops;
  return ops;
}

// ---------------------------------------------------------------------------
// FaultyFileOps

/// Durability bookkeeping for one live faulted file: the real file holds
/// everything written so far; `synced` is how much of it would survive a
/// crash; `keep` is raised past `synced` transiently for torn-write kills.
struct FaultyFileOps::OpenFile {
  std::string path;
  std::unique_ptr<WritableFile> real;
  std::size_t written = 0;
  std::size_t synced = 0;
  std::size_t keep_on_kill = 0; ///< max(synced, torn prefix)
  bool closed = false;
};

/// Faulted writable handle.  All fault decisions route through the owning
/// FaultyFileOps so kill/fail hit counters are global to the plan.  At
/// namespace scope (not anonymous) so the friend declaration in
/// FaultyFileOps resolves to this definition.
class FaultyWritableFile final : public WritableFile {
public:
  FaultyWritableFile(FaultyFileOps& owner, FaultyFileOps::OpenFile* state,
                     std::string tag)
      : owner_(owner), state_(state), tag_(std::move(tag)) {}

  ~FaultyWritableFile() override;

  std::size_t write_some(const void* data, std::size_t n) override;
  void sync() override;
  void close() override;

private:
  FaultyFileOps& owner_;
  FaultyFileOps::OpenFile* state_; ///< owned by owner_.open_
  std::string tag_;
};

FaultyFileOps::FaultyFileOps(FileOps& inner, FsFaultPlan plan)
    : inner_(inner), plan_(std::move(plan)) {}

FaultyFileOps::~FaultyFileOps() = default;

std::string FaultyFileOps::tag_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  return base.rfind("MANIFEST", 0) == 0 ? "manifest" : "segment";
}

void FaultyFileOps::hit(const std::string& point) {
  points_hit_.push_back(point);
  if (!plan_.fail_point.empty() && point == plan_.fail_point &&
      ++fail_seen_ == plan_.fail_hits) {
    throw io_error("injected fault: " + point + " failed");
  }
  if (!plan_.kill_point.empty() && point == plan_.kill_point &&
      ++kill_seen_ == plan_.kill_hits) {
    die(point);
  }
}

void FaultyFileOps::die(const std::string& point) {
  dead_ = true;
  for (const auto& f : open_) {
    if (f->closed) continue;
    // The page cache dies with the process: revert to the last-fsynced
    // prefix (plus any torn bytes a kill chose to keep).
    const std::size_t keep = std::max(f->synced, f->keep_on_kill);
    f->real->close();
    f->closed = true;
    if (::truncate(f->path.c_str(), static_cast<off_t>(keep)) != 0) {
      throw io_error("FaultyFileOps: cannot truncate " + f->path);
    }
  }
  throw killed_at{point};
}

std::unique_ptr<WritableFile> FaultyFileOps::create(
    const std::string& path) {
  KRONLAB_REQUIRE(!dead_, "FaultyFileOps used after a kill");
  auto state = std::make_unique<OpenFile>();
  state->path = path;
  state->real = inner_.create(path);
  open_.push_back(std::move(state));
  return std::make_unique<FaultyWritableFile>(*this, open_.back().get(),
                                              tag_of(path));
}

void FaultyFileOps::publish(const std::string& tmp_path,
                            const std::string& final_path) {
  KRONLAB_REQUIRE(!dead_, "FaultyFileOps used after a kill");
  const std::string tag = tag_of(final_path);
  hit(tag + ":rename:before");
  inner_.publish(tmp_path, final_path);
  // Track the renamed file's durability state under its new name.
  for (const auto& f : open_) {
    if (f->path == tmp_path) f->path = final_path;
  }
  hit(tag + ":rename:after");
}

bool FaultyFileOps::remove(const std::string& path) {
  KRONLAB_REQUIRE(!dead_, "FaultyFileOps used after a kill");
  return inner_.remove(path);
}

std::vector<std::string> FaultyFileOps::list_dir(const std::string& dir) {
  return inner_.list_dir(dir);
}

std::optional<std::string> FaultyFileOps::read_file(
    const std::string& path) {
  return inner_.read_file(path);
}

void FaultyFileOps::make_dir(const std::string& dir) {
  inner_.make_dir(dir);
}

FaultyWritableFile::~FaultyWritableFile() {
  if (!state_->closed) {
    state_->real->close();
    state_->closed = true;
  }
}

std::size_t FaultyWritableFile::write_some(const void* data,
                                           std::size_t n) {
  KRONLAB_REQUIRE(!state_->closed, "write on closed file");
  owner_.hit(tag_ + ":write:before");
  // A ":torn" kill keeps a prefix of this very write on disk — the
  // "some pages were flushed before the crash" case a resume scan must
  // discard.  Half the bytes, at least one.
  if (!owner_.plan_.kill_point.empty() && n > 0 &&
      owner_.plan_.kill_point == tag_ + ":write:torn" &&
      ++owner_.kill_seen_ == owner_.plan_.kill_hits) {
    const std::size_t torn = std::max<std::size_t>(1, n / 2);
    write_all(*state_->real, data, torn);
    state_->real->sync(); // the torn prefix really is on disk
    state_->written += torn;
    state_->keep_on_kill = state_->written;
    owner_.points_hit_.push_back(tag_ + ":write:torn");
    owner_.die(tag_ + ":write:torn");
  }
  std::size_t cap = n;
  if (owner_.plan_.short_write_cap > 0) {
    cap = std::min(cap, owner_.plan_.short_write_cap);
  }
  const std::size_t wrote = state_->real->write_some(data, cap);
  state_->written += wrote;
  if (wrote == n) owner_.hit(tag_ + ":write:after");
  return wrote;
}

void FaultyWritableFile::sync() {
  KRONLAB_REQUIRE(!state_->closed, "sync on closed file");
  owner_.hit(tag_ + ":sync:before");
  state_->real->sync();
  state_->synced = state_->written;
  owner_.hit(tag_ + ":sync:after");
}

void FaultyWritableFile::close() {
  if (state_->closed) return;
  state_->real->close();
  state_->closed = true;
}

} // namespace kronlab::io
