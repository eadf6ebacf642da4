// Positive fixture tree: library code must not print ad-hoc diagnostics;
// operational events go through obs::log so they are leveled,
// structured, and capturable by tests.  The allow marker escapes a
// deliberate terminal write.
// ANALYZE-EXPECT: obs-log 2

#include <cstdio>

void report_retry(int attempt) {
  // rule fires: this belongs in obs::log(warn, "dist", "retry")...
  std::fprintf(stderr, "retrying exchange, attempt %d\n", attempt);
  printf("attempt %d\n", attempt); // ...and so does this
}

void emit_banner() {
  // kronlab-analyze: allow(obs-log) the startup banner bypasses the
  // logger so it shows even with logging off.
  std::fprintf(stderr, "kronlab fixture banner\n");
}
