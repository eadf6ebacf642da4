// Negative fixture tree: common/random is where seeding lives, so it
// may touch a raw source.
// ANALYZE-EXPECT: random-source 0

#include <random>

unsigned entropy() {
  std::random_device rd;
  return rd();
}
