// LINT-EXPECT: tmp-path
// LINT-AS: tests/test_tmp_fixture.cpp
//
// A fixed path under /tmp is shared by every test process: cases that
// gtest_discover_tests runs in parallel (or a repeated ctest leg) collide
// on it.  Tests take a private directory from tests/support/temp_dir.hpp.
// Mentions in comments, like "/tmp/kronlab_case", must NOT trip.

#include <string>

struct TempDir {
  std::string path() const;
};

std::string scratch_path() {
  return "/tmp/kronlab_case"; // rule fires: shared fixed path
}

std::string private_path(const TempDir& dir) {
  return dir.path() + "/case"; // sanctioned: per-process directory
}

std::string documented_path() {
  // Exercises the literal prefix check itself.  kronlab-lint: allow(tmp-path)
  return "/tmp";
}
