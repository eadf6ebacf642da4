// Positive fixture tree: std::endl flushes on every line; in benches and
// kernels that turns buffered output into one syscall per line.
// ANALYZE-EXPECT: no-endl 1

#include <iostream>

void report(long long count) {
  std::cout << "butterflies = " << count << std::endl; // rule fires
}
