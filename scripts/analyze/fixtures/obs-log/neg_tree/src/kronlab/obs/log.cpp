// Negative fixture tree: the logger's own sink is exempt, tools may
// print their answer to stdout, and bench/tests/examples print freely.
// ANALYZE-EXPECT: obs-log 0

#include <cstdio>

void sink(const char* line) { std::fputs(line, stderr); }
