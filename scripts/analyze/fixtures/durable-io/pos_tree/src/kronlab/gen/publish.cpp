// Positive fixture tree: naked filesystem mutation outside
// src/kronlab/io/.  A bare rename is not a commit protocol (no fsync, no
// fault injection), so a crash can leave a torn file under the final
// name.
// ANALYZE-EXPECT: durable-io 5

#include <cstdio>
#include <string>

namespace kronlab {

void bad_publish(const std::string& tmp, const std::string& path) {
  std::rename(tmp.c_str(), path.c_str());           // rule fires
  rename(tmp.c_str(), path.c_str());                // rule fires (unqualified)
  std::remove(path.c_str());                        // rule fires
  std::FILE* f = std::fopen(path.c_str(), "wb");    // rule fires (write mode)
  std::FILE* g = fopen(path.c_str(), "a+");         // rule fires (append mode)
  if (f) std::fclose(f);
  if (g) std::fclose(g);
}

void fine(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");    // read-only: clean
  if (f) std::fclose(f);
  // The string literal below must not fire — strings are blanked.
  const std::string doc = "call std::rename( later";
  // kronlab-analyze: allow(durable-io) a bootstrap path that predates
  // io::FileOps.
  std::rename(path.c_str(), (path + ".bak").c_str());
  (void)doc;
}

} // namespace kronlab
