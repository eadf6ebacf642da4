// Positive fixture: unseeded randomness outside common/random breaks
// run-to-run reproducibility of generated graphs and their ground-truth
// counts.
// ANALYZE-EXPECT: random-source 2

#include <cstdlib>
#include <random>

int noisy_pick(int n) {
  std::random_device rd; // rule fires: nondeterministic seed source
  return static_cast<int>(rd()) % n;
}

int legacy_pick(int n) {
  return rand() % n; // rule fires: C library RNG, global hidden state
}
