// Negative fixture tree: a seeded draw, an identifier ending in "rand",
// and rand() mentioned only in a comment and a string.
// ANALYZE-EXPECT: random-source 0

struct Rng {
  explicit Rng(unsigned long seed);
  unsigned long next();
};

unsigned long operand(unsigned long x);

unsigned long pick(Rng& rng) {
  const char* why = "never call rand() here";
  (void)why;
  return operand(rng.next());
}
