// Negative fixture tree: tests may assert; library code uses the typed
// macros, static_assert, and mentions assert() only in comments.
// ANALYZE-EXPECT: no-assert 0

#include <cassert>

void check(long long n) { assert(n >= 0); }
