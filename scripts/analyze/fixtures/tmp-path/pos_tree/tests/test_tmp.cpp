// Positive fixture tree: a fixed path under /tmp is shared by every test
// process, so cases that run in parallel (or a repeated ctest leg)
// collide on it.  Tests take a private directory from
// tests/support/temp_dir.hpp.  Mentions in comments, like
// "/tmp/kronlab_case", must NOT trip.
// ANALYZE-EXPECT: tmp-path 1

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
  // kronlab-analyze: allow(tmp-path) exercises the literal prefix check.
  return "/tmp";
}
