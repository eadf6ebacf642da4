// Positive fixture: a checksum result dropped on the floor, once as a
// plain expression statement and once laundered through a (void) cast.
// ANALYZE-EXPECT: unchecked-read 2

unsigned long fnv1a64_words(const void* data, unsigned long nbytes);

void process() {
  fnv1a64_words(nullptr, 0);
  (void)fnv1a64_words(nullptr, 0);
}
