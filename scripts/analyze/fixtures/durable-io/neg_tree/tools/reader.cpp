#include <cstdio>

struct Store;

void read(const char* path, Store* s) {
  std::FILE* f = std::fopen(path, "rb");
  if (f) std::fclose(f);
  s->remove("key"); // a member call, not the C function
}
