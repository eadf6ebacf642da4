// Negative fixture tree: src/kronlab/io/ is the durable-io layer itself,
// tests and examples simulate corruption directly, and a tool may open
// files read-only.
// ANALYZE-EXPECT: durable-io 0

#include <cstdio>

void publish(const char* tmp, const char* path) { std::rename(tmp, path); }
