#include <cstdio>

void tear(const char* path) {
  std::remove(path);
  std::FILE* f = std::fopen(path, "wb");
  if (f) std::fclose(f);
}
