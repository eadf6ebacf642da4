// ANALYZE-EXPECT: obs-log 1

#include <cstdio>

void warn() {
  std::fprintf(stderr, "tool: something odd\n"); // rule fires in tools/
}
