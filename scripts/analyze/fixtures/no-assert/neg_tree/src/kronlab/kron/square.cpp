#include <cstdint>

#define KRONLAB_DBG_ASSERT(cond) ((void)(cond))

static_assert(sizeof(std::int64_t) == 8, "indices are 64-bit");

long long checked_square(long long n) {
  KRONLAB_DBG_ASSERT(n >= 0); // not assert(): typed and release-safe
  return n * n;
}
