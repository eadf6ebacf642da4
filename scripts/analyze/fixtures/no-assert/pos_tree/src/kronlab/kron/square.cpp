// Positive fixture tree: C assert() vanishes under NDEBUG, so a release
// build silently drops the contract; library code uses the typed project
// macros.  (static_assert is fine and must NOT be flagged.)
// ANALYZE-EXPECT: no-assert 1

#include <cassert>
#include <cstdint>

static_assert(sizeof(std::int64_t) == 8, "indices are 64-bit");

long long checked_square(long long n) {
  assert(n >= 0 && "negative count"); // rule fires
  return n * n;
}
