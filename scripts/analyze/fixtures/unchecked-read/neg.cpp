// Negative fixture: results consumed, or a discard justified inline.
// ANALYZE-EXPECT: unchecked-read 0

unsigned long fnv1a64_words(const void* data, unsigned long nbytes);

unsigned long consume() {
  const unsigned long h = fnv1a64_words(nullptr, 0);
  if (fnv1a64_words(nullptr, 0) != 0) {
    return 1;
  }
  // kronlab-analyze: allow(unchecked-read) warming the page cache only
  fnv1a64_words(nullptr, 0);
  return h;
}
