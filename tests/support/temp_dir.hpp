// tests/support/temp_dir.hpp
//
// A fresh directory under the system temp directory, created with mkdtemp
// and removed with everything in it when the TempDir goes out of scope.
// Every TempDir has a path of its own, so test processes running in
// parallel (ctest -j) or repeatedly never share files.

#pragma once

#include <stdlib.h> // mkdtemp (POSIX)

#include <cerrno>
#include <filesystem>
#include <string>
#include <system_error>

namespace kronlab::test_support {

class TempDir {
public:
  /// Creates <temp>/kronlab_<tag>_XXXXXX; throws std::system_error if
  /// mkdtemp fails.
  explicit TempDir(const std::string& tag) {
    std::string path = (std::filesystem::temp_directory_path() /
                        ("kronlab_" + tag + "_XXXXXX"))
                           .string();
    if (::mkdtemp(path.data()) == nullptr) {
      throw std::system_error(errno, std::generic_category(),
                              "mkdtemp " + path);
    }
    path_ = std::move(path);
  }

  ~TempDir() {
    std::error_code ec; // best effort: a destructor must not throw
    std::filesystem::remove_all(path_, ec);
  }

  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

  /// Path of `name` inside the directory.
  [[nodiscard]] std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

private:
  std::string path_;
};

} // namespace kronlab::test_support
